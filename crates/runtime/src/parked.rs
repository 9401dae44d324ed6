//! Parked, reused threads for blocking tasks that must leave their
//! caller's thread: the router's submit attempts (a primary and its
//! hedge race a timer on the dispatching thread), its per-backend
//! scrapes, and the job API's completions (each waits its job out, then
//! journals it, so the fdatasync never runs on a scheduler pool worker).
//!
//! [`run`] hands a task to a parked thread when one is idle and starts a
//! new one only when none is. A thread that finishes a task parks for the
//! next one, or exits when a small constant number of threads already
//! wait. One pool
//! serves the whole process; its threads are named `cf-parked`. See
//! DESIGN.md §8.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread;

use crate::sync;

/// Threads that may wait parked for work; one that finishes a task while
/// this many already wait exits instead of parking.
const IDLE_CAP: usize = 8;

type Task = Box<dyn FnOnce() + Send>;

/// The pool. Every parked thread is either counted in `idle` or is about
/// to pop one of `tasks`: parked threads = `idle` + `tasks.len()`.
struct Parked {
    tasks: VecDeque<Task>,
    idle: usize,
}

static POOL: Mutex<Parked> = Mutex::new(Parked { tasks: VecDeque::new(), idle: 0 });
static WAKE: Condvar = Condvar::new();

/// Runs `task` on a parked thread, or on a new one when none is idle. A
/// task that panics costs only itself: its thread parks again.
///
/// # Errors
///
/// No thread was idle and none could be spawned; `task` was dropped
/// unrun.
pub(crate) fn run(task: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    let mut pool = sync::lock(&POOL);
    if pool.idle > 0 {
        pool.idle -= 1;
        pool.tasks.push_back(Box::new(task));
        drop(pool);
        WAKE.notify_one();
        return Ok(());
    }
    drop(pool);
    let first: Task = Box::new(task);
    thread::Builder::new().name("cf-parked".to_string()).spawn(move || serve(first)).map(drop)
}

/// A parked thread's life: run a task, park, take the next one.
fn serve(mut task: Task) {
    loop {
        let _ = panic::catch_unwind(AssertUnwindSafe(task));
        let mut pool = sync::lock(&POOL);
        if pool.idle >= IDLE_CAP {
            return;
        }
        pool.idle += 1;
        task = loop {
            if let Some(next) = pool.tasks.pop_front() {
                break next;
            }
            pool = sync::wait(&WAKE, pool);
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn tasks_run_and_a_panicking_task_spares_its_thread() {
        let (tx, rx) = mpsc::channel();
        run(|| panic!("boom")).unwrap();
        for i in 0..64u32 {
            let tx = tx.clone();
            run(move || tx.send(i).unwrap()).unwrap();
        }
        let mut got: Vec<u32> = (0..64).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }
}
