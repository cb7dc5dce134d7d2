//! The event loop core: poller + wakeup pipe + timer wheel.
//!
//! [`Reactor`] composes the three readiness sources a serve front end
//! needs — socket readiness, cross-thread wakes, and deadline expiry —
//! behind one [`poll`](Reactor::poll) call. The caller owns the loop:
//!
//! ```no_run
//! use pchls_net::{Backend, Interest, Reactor, Token};
//! use std::time::Instant;
//!
//! let mut reactor = Reactor::new(Backend::Auto).unwrap();
//! let waker = reactor.waker(); // hand to worker threads
//! let mut events = Vec::new();
//! let mut expired: Vec<Token> = Vec::new();
//! loop {
//!     let woken = reactor.poll(&mut events, &mut expired, Instant::now()).unwrap();
//!     if woken { /* drain completion queue */ }
//!     for ev in &events { /* service readiness */ }
//!     for token in expired.drain(..) { /* enforce deadline */ }
//!     # break;
//! }
//! ```
//!
//! The wakeup pipe occupies the reserved [`WAKE_TOKEN`]; user
//! registrations must use other tokens.

use std::io;
use std::time::{Duration, Instant};

use crate::poller::{Backend, Event, Interest, Poller, Token};
use crate::timer::{TimerId, TimerWheel};
use crate::wake::{wake_pair, WakeReader, Waker};

/// Token reserved for the internal wakeup pipe. Never appears in the
/// events handed to the caller.
pub(crate) const WAKE_TOKEN: Token = Token(usize::MAX);

/// Timer granularity: fine enough for millisecond-scale deadlines,
/// coarse enough that bucket scans stay trivial.
const TICK: Duration = Duration::from_millis(4);

/// A single-threaded readiness loop; see module docs.
#[derive(Debug)]
pub struct Reactor {
    poller: Poller,
    waker: Waker,
    wake_reader: WakeReader,
    timers: TimerWheel<Token>,
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
            timers: TimerWheel::new(Instant::now(), TICK),
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

    /// Schedules `token` to expire at `deadline`.
    pub fn arm_timer(&mut self, deadline: Instant, token: Token) -> TimerId {
        self.timers.insert(deadline, token)
    }

    /// Cancels a pending timer; `None` if it already fired.
    pub fn cancel_timer(&mut self, id: TimerId) -> Option<Token> {
        self.timers.cancel(id)
    }

    /// Waits for readiness, a wake, or the next timer deadline.
    ///
    /// Socket events are appended to `events` (cleared first), expired
    /// timer payloads to `expired` (appended, not cleared, so a caller
    /// can accumulate). Returns whether a cross-thread wake was
    /// observed; wakes are coalesced and the pipe is fully drained
    /// before returning.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        expired: &mut Vec<Token>,
        now: Instant,
    ) -> io::Result<bool> {
        // Fire anything already due before sleeping.
        self.timers.advance(now, expired);
        let timeout = if expired.is_empty() {
            self.timers
                .next_deadline()
                .map(|d| d.saturating_duration_since(now))
        } else {
            // Work is already pending; just collect ready events.
            Some(Duration::ZERO)
        };
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
        self.timers.advance(Instant::now(), expired);
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
            let mut expired = Vec::new();
            let woken = reactor
                .poll(&mut events, &mut expired, Instant::now())
                .unwrap();
            handle.join().unwrap();
            assert!(woken, "{backend:?}");
            assert!(events.is_empty(), "{backend:?}: wake token filtered out");
        }
    }

    #[test]
    fn timers_fire_without_any_io() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let deadline = Instant::now() + Duration::from_millis(25);
            reactor.arm_timer(deadline, Token(5));
            let mut events = Vec::new();
            let mut expired = Vec::new();
            let start = Instant::now();
            while expired.is_empty() {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "{backend:?}: stuck"
                );
                reactor
                    .poll(&mut events, &mut expired, Instant::now())
                    .unwrap();
            }
            assert_eq!(expired, vec![Token(5)], "{backend:?}");
            assert!(
                Instant::now() >= deadline,
                "{backend:?}: fired before the deadline"
            );
        }
    }

    #[test]
    fn cancelled_timer_never_fires() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let id = reactor.arm_timer(Instant::now() + Duration::from_millis(10), Token(1));
            assert_eq!(reactor.cancel_timer(id), Some(Token(1)));
            std::thread::sleep(Duration::from_millis(20));
            // With no timers and no I/O, poll would block forever — a
            // pending wake makes it return immediately.
            reactor.waker().wake().unwrap();
            let mut events = Vec::new();
            let mut expired = Vec::new();
            let woken = reactor
                .poll(&mut events, &mut expired, Instant::now())
                .unwrap();
            assert!(woken, "{backend:?}");
            assert!(expired.is_empty(), "{backend:?}");
        }
    }

    #[test]
    fn io_readiness_and_timers_interleave() {
        for backend in backends() {
            let mut reactor = Reactor::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
            reactor.register(r.0, Token(2), Interest::READABLE).unwrap();
            reactor.arm_timer(Instant::now() + Duration::from_millis(15), Token(3));
            write(w.0, b"x").unwrap();

            let mut events = Vec::new();
            let mut expired = Vec::new();
            reactor
                .poll(&mut events, &mut expired, Instant::now())
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, Token(2));

            let start = Instant::now();
            while expired.is_empty() {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "{backend:?}: stuck"
                );
                reactor
                    .poll(&mut events, &mut expired, Instant::now())
                    .unwrap();
            }
            assert_eq!(expired, vec![Token(3)], "{backend:?}");
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
