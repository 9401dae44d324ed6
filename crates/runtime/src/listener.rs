//! The one accept loop behind every HTTP listener: [`crate::StatusServer`],
//! [`crate::RouterServer`] and [`crate::FaultProxy`] each wrap an
//! [`AcceptLoop`] with their own per-connection handler.
//!
//! The loop's threads stay resident and take turns (leader/followers).
//! Every idle thread blocks in `accept()` on the same **blocking** socket,
//! and the thread it returns on serves that connection itself, with no
//! handoff. If that leaves no other thread waiting in `accept()`, it
//! first starts a successor, so a long-poll never holds up the next
//! connect. After serving, a thread goes back to `accept()`, or exits if
//! a small constant number of threads already wait there. Each handler runs under
//! `catch_unwind`: a panic drops its connection, and the thread accepts
//! again.
//!
//! [`AcceptLoop::stop`] sets the shutdown flag and calls `shutdown(2)` on
//! the listening socket. On Linux that wakes every blocked `accept()` at
//! once, and from then on the port refuses connections. Where it wakes
//! none, `stop` connects to the port once per waiting thread instead, and
//! each thread drops that connection unserved. Connections already being
//! served finish on their own threads. See DESIGN.md §8.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::sync;

/// Threads that may wait in `accept()` at once; one that finishes serving
/// while this many wait exits.
const IDLE_CAP: usize = 4;

/// Pause after a failed `accept()`, so a persistent error cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// How long [`AcceptLoop::stop`] waits for the waiting threads to leave.
const STOP_WAIT: Duration = Duration::from_secs(1);

type Handler = Box<dyn Fn(TcpStream, u64) + Send + Sync>;

/// What every thread of one loop shares.
struct Shared {
    listener: TcpListener,
    name: String,
    handler: Handler,
    state: Mutex<State>,
    /// Signalled when a waiting thread leaves after `stop`.
    left: Condvar,
}

struct State {
    /// Threads waiting in (or about to enter) `accept()`.
    idle: usize,
    /// The next connection's token.
    next_token: u64,
    stopping: bool,
}

/// A bound loopback listener plus the resident threads accepting on it
/// (see the module docs).
pub struct AcceptLoop {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for AcceptLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceptLoop")
            .field("addr", &self.addr)
            .field("name", &self.shared.name)
            .finish()
    }
}

impl AcceptLoop {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port — read it back
    /// via [`local_addr`](AcceptLoop::local_addr)) and starts the first
    /// accepting thread. Every thread of the loop is named `name`. Each
    /// accepted connection runs `handler(stream, token)` on the thread
    /// that accepted it, with `token` counting the loop's connections
    /// from 0.
    ///
    /// # Errors
    ///
    /// Any socket bind failure, or the failure to start the first
    /// thread, unchanged.
    pub fn bind<F>(port: u16, name: &str, handler: F) -> std::io::Result<AcceptLoop>
    where
        F: Fn(TcpStream, u64) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            listener,
            name: name.to_string(),
            handler: Box::new(handler),
            state: Mutex::new(State { idle: 1, next_token: 0, stopping: false }),
            left: Condvar::new(),
        });
        spawn_acceptor(&shared)?;
        Ok(AcceptLoop { addr, shared })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting: once this returns the threads that were waiting
    /// in `accept()` have left and, on Linux, the port refuses
    /// connections. Connections already being served finish on their own
    /// threads. Idempotent; also done on drop.
    pub fn stop(&mut self) {
        let shared = &self.shared;
        {
            let mut state = sync::lock(&shared.state);
            if state.stopping {
                return;
            }
            state.stopping = true;
        }
        let woken = shut_down(&shared.listener).is_ok();
        let deadline = Instant::now() + STOP_WAIT;
        let mut state = sync::lock(&shared.state);
        while state.idle > 0 {
            let now = Instant::now();
            if now >= deadline {
                // A thread that never returns from `accept()` leaves at
                // the next connect; do not hang the caller on it.
                return;
            }
            if !woken {
                drop(state);
                let _ = TcpStream::connect_timeout(&self.addr, deadline - now);
                state = sync::lock(&shared.state);
            }
            state =
                sync::wait_timeout(&shared.left, state, deadline.saturating_duration_since(now));
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Shuts the listening socket down for both directions. On Linux this
/// wakes every thread blocked in `accept()` on it and takes the port out
/// of the listening table; elsewhere it may fail and wake nobody.
#[cfg(unix)]
fn shut_down(listener: &TcpListener) -> std::io::Result<()> {
    let fd = std::os::fd::OwnedFd::from(listener.try_clone()?);
    TcpStream::from(fd).shutdown(Shutdown::Both)
}

#[cfg(not(unix))]
fn shut_down(_listener: &TcpListener) -> std::io::Result<()> {
    Err(std::io::ErrorKind::Unsupported.into())
}

/// Starts one more accepting thread; the caller has already counted it
/// in `idle`.
fn spawn_acceptor(shared: &Arc<Shared>) -> std::io::Result<()> {
    let own = Arc::clone(shared);
    thread::Builder::new().name(shared.name.clone()).spawn(move || accept_loop(&own)).map(drop)
}

/// One resident thread: accept, serve what it accepted, accept again.
fn accept_loop(shared: &Arc<Shared>) {
    loop {
        let accepted = shared.listener.accept();
        let mut state = sync::lock(&shared.state);
        if state.stopping {
            // Woken by `stop` (or a peer that raced it): the connection,
            // if any, is dropped unserved.
            state.idle -= 1;
            drop(state);
            shared.left.notify_all();
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            drop(state);
            thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        state.idle -= 1;
        let token = state.next_token;
        state.next_token += 1;
        let successor = state.idle == 0;
        if successor {
            state.idle += 1;
        }
        drop(state);
        if successor && spawn_acceptor(shared).is_err() {
            // This thread accepts again once it has served.
            sync::lock(&shared.state).idle -= 1;
        }
        let _ = panic::catch_unwind(AssertUnwindSafe(|| (shared.handler)(stream, token)));
        let mut state = sync::lock(&shared.state);
        if state.stopping || state.idle >= IDLE_CAP {
            return;
        }
        state.idle += 1;
    }
}
