//! The one accept loop behind every HTTP listener: [`crate::StatusServer`],
//! [`crate::RouterServer`] and [`crate::FaultProxy`] each wrap an
//! [`AcceptLoop`] with their own per-connection handler.
//!
//! The socket stays **blocking**, so `accept()` returns the instant a
//! peer connects. [`AcceptLoop::stop`] sets the shutdown flag, then wakes
//! the blocked `accept()` by connecting to its own port; the loop drops
//! that connection unserved and exits, closing the port. See DESIGN.md §8.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Pause after a failed `accept()`, so a persistent error cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Connect timeout of the wake connection [`AcceptLoop::stop`] makes.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A bound loopback listener plus the thread accepting on it (see the
/// module docs).
#[derive(Debug)]
pub struct AcceptLoop {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl AcceptLoop {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port — read it back
    /// via [`local_addr`](AcceptLoop::local_addr)) and starts the accept
    /// thread, named `name`. Each accepted connection runs
    /// `handler(stream, token)` on a thread named `<name>-conn-<token>`,
    /// with `token` counting the loop's connections from 0.
    ///
    /// # Errors
    ///
    /// Any socket bind failure, unchanged.
    pub fn bind<F>(port: u16, name: &str, handler: F) -> std::io::Result<AcceptLoop>
    where
        F: Fn(TcpStream, u64) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&shutdown);
        let conn_name = format!("{name}-conn-");
        let handler = Arc::new(handler);
        let accept = move || {
            let mut token = 0u64;
            loop {
                let accepted = listener.accept();
                if stopping.load(Ordering::SeqCst) {
                    // The wake connection from `stop` (or a peer that
                    // raced it): dropped unserved.
                    return;
                }
                let Ok((stream, _peer)) = accepted else {
                    thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                };
                // A failed spawn drops the stream: that peer sees a
                // closed connection, the loop lives on.
                let handler = Arc::clone(&handler);
                let spawned = thread::Builder::new()
                    .name(format!("{conn_name}{token}"))
                    .spawn(move || handler(stream, token));
                drop(spawned);
                token += 1;
            }
        };
        let thread = thread::Builder::new().name(name.to_string()).spawn(accept)?;
        Ok(AcceptLoop { addr, shutdown, thread: Some(thread) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread; once this returns
    /// the port refuses connections. Connection threads already running
    /// finish on their own. Idempotent; also done on drop.
    pub fn stop(&mut self) {
        let Some(handle) = self.thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // If not even a loopback connect goes through, the accept may
        // never return: leave the thread to exit at its next accept
        // rather than hang the caller.
        if TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}
