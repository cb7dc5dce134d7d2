//! The event loop core: poller + wakeup pipe.
//!
//! [`Reactor`] composes the readiness sources a serve front end needs —
//! socket readiness and cross-thread wakes — behind one
//! [`poll`](Reactor::poll) call that also honours one caller-supplied
//! deadline. The caller owns the loop:
//!
//! ```no_run
//! use pchls_net::{Backend, Interest, Reactor, Token};
//! use std::time::{Duration, Instant};
//!
//! let mut reactor = Reactor::new(Backend::Auto).unwrap();
//! let waker = reactor.waker(); // hand to worker threads
//! let mut events = Vec::new();
//! let mut next_tick = Instant::now() + Duration::from_secs(1);
//! loop {
//!     let woken = reactor.poll(&mut events, Some(next_tick)).unwrap();
//!     if woken { /* drain completion queue */ }
//!     for ev in &events { /* service readiness */ }
//!     if Instant::now() >= next_tick { /* periodic work */ }
//!     # break;
//! }
//! ```
//!
//! The wakeup pipe occupies the reserved [`WAKE_TOKEN`]; user
//! registrations must use other tokens.

use std::io;
use std::time::Instant;

use crate::poller::{Backend, Event, Interest, Poller, Token};
use crate::wake::{wake_pair, WakeReader, Waker};

/// Token reserved for the internal wakeup pipe. Never appears in the
/// events handed to the caller.
pub(crate) const WAKE_TOKEN: Token = Token(usize::MAX);

/// A single-threaded readiness loop; see module docs.
#[derive(Debug)]
pub struct Reactor {
    poller: Poller,
    waker: Waker,
    wake_reader: WakeReader,
}

impl Reactor {
    /// Opens a reactor on the chosen poller backend and registers the
    /// internal wakeup pipe.
    pub fn new(backend: Backend) -> io::Result<Reactor> {
        let mut poller = Poller::new(backend)?;
        let (waker, wake_reader) = wake_pair()?;
        poller.register(wake_reader.fd(), WAKE_TOKEN, Interest::READABLE)?;
        Ok(Reactor {
            poller,
            waker,
            wake_reader,
        })
    }

    /// A cloneable handle other threads use to interrupt `poll`.
    #[must_use]
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Registers a descriptor. `token` must not be `WAKE_TOKEN`.
    pub fn register(&mut self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        assert_ne!(token, WAKE_TOKEN, "WAKE_TOKEN is reserved");
        self.poller.register(fd, token, interest)
    }

    /// Updates a registration's interest.
    pub fn modify(&mut self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        assert_ne!(token, WAKE_TOKEN, "WAKE_TOKEN is reserved");
        self.poller.modify(fd, token, interest)
    }

    /// Drops a registration (no-op if the fd was already closed).
    pub fn deregister(&mut self, fd: i32) {
        self.poller.deregister(fd);
    }

    /// Waits for readiness, a wake, or `deadline` (`None` waits without
    /// one). Never returns on the deadline before it has passed.
    ///
    /// Socket events are appended to `events` (cleared first). Returns
    /// whether a cross-thread wake was observed; wakes are coalesced and
    /// the pipe is fully drained before returning.
    pub fn poll(&mut self, events: &mut Vec<Event>, deadline: Option<Instant>) -> io::Result<bool> {
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        self.poller.wait(events, timeout)?;
        let mut woken = false;
        events.retain(|ev| {
            if ev.token == WAKE_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            self.wake_reader.drain()?;
        }
        Ok(woken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{pipe2_nonblocking, write, OwnedSysFd};
    use std::time::Duration;

    fn backends() -> Vec<Backend> {
        vec![Backend::Epoll, Backend::Poll]
    }

    #[test]
    fn wake_from_another_thread_interrupts_poll() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let waker = reactor.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake().unwrap();
            });
            let mut events = Vec::new();
            let woken = reactor.poll(&mut events, None).unwrap();
            handle.join().unwrap();
            assert!(woken, "{backend:?}");
            assert!(events.is_empty(), "{backend:?}: wake token filtered out");
        }
    }

    #[test]
    fn deadline_returns_without_any_io_but_never_early() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let deadline = Instant::now() + Duration::from_millis(25);
            let mut events = Vec::new();
            let woken = reactor.poll(&mut events, Some(deadline)).unwrap();
            assert!(!woken && events.is_empty(), "{backend:?}");
            assert!(
                Instant::now() >= deadline,
                "{backend:?}: returned before the deadline"
            );
        }
    }

    #[test]
    fn io_readiness_returns_before_a_far_deadline() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
            reactor.register(r.0, Token(2), Interest::READABLE).unwrap();
            write(w.0, b"x").unwrap();

            let start = Instant::now();
            let mut events = Vec::new();
            reactor
                .poll(&mut events, Some(start + Duration::from_secs(60)))
                .unwrap();
            assert!(start.elapsed() < Duration::from_secs(30), "{backend:?}");
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, Token(2));
            reactor.deregister(r.0);
        }
    }

    #[test]
    #[should_panic(expected = "WAKE_TOKEN is reserved")]
    fn registering_the_wake_token_panics() {
        let mut reactor = Reactor::new(Backend::Poll).unwrap();
        let (r, _w) = pipe2_nonblocking().unwrap();
        let r = OwnedSysFd(r);
        let _ = reactor.register(r.0, WAKE_TOKEN, Interest::READABLE);
    }
}
