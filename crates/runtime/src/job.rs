//! Jobs and their handles: the future-like half of the scheduler.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cf_core::CoreError;

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job was cancelled via [`JobHandle::cancel`] before it started.
    Cancelled,
    /// The job's deadline passed while it was still queued.
    DeadlineExceeded {
        /// How far past the deadline the worker found the job.
        late_by: Duration,
    },
    /// The runtime shut down before the job could run.
    Shutdown,
    /// The submission queue was full (`try_submit` only).
    QueueFull,
    /// The circuit breaker is open: the job was shed without running (see
    /// [`supervisor`](crate::supervisor)).
    CircuitOpen,
    /// Admission control rejected the job at submit time: the runtime is
    /// over its [`LoadPolicy`](crate::LoadPolicy) capacity. Carries the
    /// queue-depth context observed at rejection.
    Shed {
        /// Which limit tripped: `"in-flight"` or `"queued-bytes"`.
        limit: &'static str,
        /// Accepted-but-unfinished jobs at rejection time.
        in_flight: usize,
        /// Estimated bytes queued at rejection time.
        queued_bytes: usize,
    },
    /// A terminal failure replayed verbatim from a serve journal; the
    /// string is the original error's rendering (so a resumed report is
    /// byte-identical to the uninterrupted one).
    Journaled(String),
    /// The simulator/executor reported an error.
    Sim(CoreError),
    /// The job body panicked; the payload's `Display` if it had one.
    Panicked(String),
}

impl JobError {
    /// Whether a retry of the same job might succeed: panics and
    /// transient simulator faults are worth retrying, everything else is
    /// deterministic or a policy decision.
    pub fn is_transient(&self) -> bool {
        match self {
            JobError::Panicked(_) => true,
            JobError::Sim(e) => e.is_transient(),
            // Load shedding is a point-in-time capacity decision: the
            // same submission can succeed once in-flight work drains.
            JobError::Shed { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled before it started"),
            JobError::DeadlineExceeded { late_by } => {
                write!(f, "job deadline exceeded ({late_by:.2?} late)")
            }
            JobError::Shutdown => write!(f, "runtime shut down before the job ran"),
            JobError::QueueFull => write!(f, "submission queue full"),
            JobError::CircuitOpen => {
                write!(f, "circuit breaker open: job shed without running")
            }
            JobError::Shed { limit, in_flight, queued_bytes } => write!(
                f,
                "job shed: {limit} limit reached ({in_flight} in flight, {queued_bytes} bytes queued)"
            ),
            // Verbatim: the journaled string is the original rendering.
            JobError::Journaled(msg) => write!(f, "{msg}"),
            JobError::Sim(e) => write!(f, "simulation error: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for JobError {
    fn from(e: CoreError) -> Self {
        JobError::Sim(e)
    }
}

pub(crate) struct Shared<T> {
    pub(crate) state: Mutex<Option<Result<T, JobError>>>,
    pub(crate) done: Condvar,
    /// Shared with the scheduler's queue entry so workers can observe
    /// cancellation without knowing `T`.
    pub(crate) cancelled: Arc<AtomicBool>,
    pub(crate) id: u64,
}

impl<T> Shared<T> {
    pub(crate) fn complete(&self, result: Result<T, JobError>) {
        let mut state = crate::sync::lock(&self.state);
        if state.is_none() {
            *state = Some(result);
            self.done.notify_all();
        }
    }
}

/// A handle to one submitted job — a blocking future.
///
/// The result is retrieved exactly once with [`join`](JobHandle::join)
/// (or [`join_timeout`](JobHandle::join_timeout)); dropping the handle
/// detaches the job, which still runs to completion.
pub struct JobHandle<T> {
    pub(crate) shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JobHandle<T> {
    pub(crate) fn new(id: u64) -> (Self, Arc<Shared<T>>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(None),
            done: Condvar::new(),
            cancelled: Arc::new(AtomicBool::new(false)),
            id,
        });
        (JobHandle { shared: Arc::clone(&shared) }, shared)
    }

    /// The runtime-unique job id (submission order).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Whether a result is already available.
    pub fn is_done(&self) -> bool {
        crate::sync::lock(&self.shared.state).is_some()
    }

    /// Requests cancellation. Queued jobs resolve to
    /// [`JobError::Cancelled`]; a job already running completes normally
    /// (the simulator has no safe preemption points).
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether [`cancel`](JobHandle::cancel) was called.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::SeqCst)
    }

    /// Blocks until the job resolves and returns its result.
    pub fn join(self) -> Result<T, JobError> {
        let mut state = crate::sync::lock(&self.shared.state);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = crate::sync::wait(&self.shared.done, state);
        }
    }

    /// Blocks up to `timeout` for the result; `Err(self)` gives the handle
    /// back on timeout so the caller can keep waiting or cancel.
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<T, JobError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut state = crate::sync::lock(&self.shared.state);
        loop {
            if let Some(result) = state.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            state = crate::sync::wait_timeout(&self.shared.done, state, deadline - now);
        }
    }
}

/// Submission options: deadline and cache behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOptions {
    /// Resolve to [`JobError::DeadlineExceeded`] if the job has not
    /// *started* within this duration of submission. `None` means no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Skip the plan/report cache for this job (both lookup and fill),
    /// and simulate it from scratch: the job does not use the
    /// simulation tables its worker keeps across jobs either.
    pub bypass_cache: bool,
    /// Estimated working-set bytes, charged against
    /// [`LoadPolicy::max_queued_bytes`](crate::LoadPolicy::max_queued_bytes)
    /// while the job is queued. 0 means "derive a default": the
    /// simulate/exec submit paths fill in the program's external-memory
    /// footprint.
    pub cost_bytes: usize,
    /// The distributed trace context this job runs under, if any: the
    /// scheduler attaches it to the run's [`Tracer`](crate::Tracer) so
    /// the job's span-ring events join the fleet-wide trace (see
    /// [`trace`](crate::trace)).
    pub trace: Option<crate::trace::TraceContext>,
}

impl JobOptions {
    /// Options with a start deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        JobOptions { deadline: Some(deadline), ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn join_receives_result_across_threads() {
        let (handle, shared) = JobHandle::<u32>::new(7);
        assert_eq!(handle.id(), 7);
        assert!(!handle.is_done());
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            shared.complete(Ok(99));
        });
        assert_eq!(handle.join().unwrap(), 99);
        t.join().unwrap();
    }

    #[test]
    fn join_timeout_returns_handle_then_result() {
        let (handle, shared) = JobHandle::<u32>::new(0);
        let handle = handle.join_timeout(Duration::from_millis(10)).unwrap_err();
        shared.complete(Err(JobError::Cancelled));
        assert_eq!(handle.join(), Err(JobError::Cancelled));
    }

    #[test]
    fn first_completion_wins() {
        let (handle, shared) = JobHandle::<u32>::new(0);
        shared.complete(Ok(1));
        shared.complete(Ok(2));
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = JobError::DeadlineExceeded { late_by: Duration::from_millis(5) };
        assert!(e.to_string().contains("deadline"));
        assert!(JobError::Panicked("boom".into()).to_string().contains("boom"));
    }
}
