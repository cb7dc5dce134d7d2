//! Readiness polling over two interchangeable kernel backends.
//!
//! [`Poller`] exposes the minimal readiness interface the reactor
//! needs — register / modify / deregister a descriptor under a
//! [`Token`], then [`wait`](Poller::wait) for [`Event`]s — backed by
//! either **epoll** (the default on Linux) or **ppoll** (the poll(2)
//! fallback; also the reference implementation the epoll backend is
//! differentially tested against). Both are level-triggered: an event
//! repeats every wait until the caller drains the readiness, which
//! keeps the contract simple and loss-proof.

use std::io;
use std::time::Duration;

use crate::sys;

/// Caller-chosen identity of a registered descriptor, echoed on every
/// readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn event_mask(self) -> u32 {
        let mut mask = sys::EV_RDHUP;
        if self.readable {
            mask |= sys::EV_IN;
        }
        if self.writable {
            mask |= sys::EV_OUT;
        }
        mask
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The registration this event belongs to.
    pub token: Token,
    /// Data can be read without blocking (or EOF is observable).
    pub readable: bool,
    /// Data can be written without blocking.
    pub writable: bool,
    /// The peer closed (hangup / read-half shutdown): drain then drop.
    pub closed: bool,
    /// The descriptor is in an error state.
    pub error: bool,
}

impl Event {
    fn from_mask(token: Token, mask: u32) -> Event {
        Event {
            token,
            readable: mask & (sys::EV_IN | sys::EV_HUP | sys::EV_RDHUP) != 0,
            writable: mask & sys::EV_OUT != 0,
            closed: mask & (sys::EV_HUP | sys::EV_RDHUP) != 0,
            error: mask & (sys::EV_ERR | sys::EV_NVAL) != 0,
        }
    }
}

/// Which kernel facility backs a `Poller`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// epoll if available, ppoll otherwise (the default).
    Auto,
    /// Force epoll (`Poller::new` fails where epoll is unavailable).
    Epoll,
    /// Force the ppoll fallback.
    Poll,
}

#[derive(Debug)]
enum Inner {
    Epoll {
        epfd: sys::OwnedSysFd,
        /// Registered descriptor count (sizes the event buffer).
        registered: usize,
    },
    Poll {
        /// Parallel arrays: the kernel-facing pollfd set and the token
        /// of each live entry. Deregistered entries are compacted.
        fds: Vec<sys::PollFd>,
        tokens: Vec<Token>,
    },
}

/// A readiness selector over raw descriptors (see module docs).
#[derive(Debug)]
pub(crate) struct Poller {
    inner: Inner,
}

impl Poller {
    /// Opens a poller over the chosen [`Backend`].
    ///
    /// # Errors
    ///
    /// `Backend::Epoll` when the kernel refuses `epoll_create1`;
    /// `Auto` falls back to ppoll instead of failing.
    pub(crate) fn new(backend: Backend) -> io::Result<Poller> {
        let inner = match backend {
            Backend::Poll => Inner::poll(),
            Backend::Epoll => Inner::epoll()?,
            Backend::Auto => Inner::epoll().unwrap_or_else(|_| Inner::poll()),
        };
        Ok(Poller { inner })
    }

    /// Registers `fd` under `token` with `interest`. One registration
    /// per descriptor; re-registering an fd is a caller bug surfaced as
    /// `EEXIST` on epoll (the poll backend mirrors that check).
    pub(crate) fn register(&mut self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            Inner::Epoll { epfd, registered } => {
                let mut ev = sys::EpollEvent {
                    events: interest.event_mask(),
                    data: token.0 as u64,
                };
                sys::epoll_ctl(epfd.0, sys::EPOLL_CTL_ADD, fd, &mut ev)?;
                *registered += 1;
                Ok(())
            }
            Inner::Poll { fds, tokens } => {
                if fds.iter().any(|p| p.fd == fd) {
                    return Err(io::Error::from_raw_os_error(17)); // EEXIST
                }
                fds.push(sys::PollFd {
                    fd,
                    events: (interest.event_mask() & 0xffff) as i16,
                    revents: 0,
                });
                tokens.push(token);
                Ok(())
            }
        }
    }

    /// Changes the interest (and token) of a registered descriptor.
    pub(crate) fn modify(&mut self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            Inner::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: interest.event_mask(),
                    data: token.0 as u64,
                };
                sys::epoll_ctl(epfd.0, sys::EPOLL_CTL_MOD, fd, &mut ev)
            }
            Inner::Poll { fds, tokens } => {
                let idx = fds
                    .iter()
                    .position(|p| p.fd == fd)
                    .ok_or_else(|| io::Error::from_raw_os_error(2))?; // ENOENT
                fds[idx].events = (interest.event_mask() & 0xffff) as i16;
                tokens[idx] = token;
                Ok(())
            }
        }
    }

    /// Removes a registration. Safe to call for an fd that was already
    /// closed (the error is swallowed — the kernel dropped it for us).
    pub(crate) fn deregister(&mut self, fd: i32) {
        match &mut self.inner {
            Inner::Epoll { epfd, registered } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                if sys::epoll_ctl(epfd.0, sys::EPOLL_CTL_DEL, fd, &mut ev).is_ok() {
                    *registered = registered.saturating_sub(1);
                }
            }
            Inner::Poll { fds, tokens } => {
                if let Some(idx) = fds.iter().position(|p| p.fd == fd) {
                    fds.swap_remove(idx);
                    tokens.swap_remove(idx);
                }
            }
        }
    }

    /// Blocks until at least one registered descriptor is ready, the
    /// timeout elapses (`Ok` with `events` empty), or a signal
    /// interrupts (retried internally). `None` blocks indefinitely.
    ///
    /// Ready events are appended to `events` (cleared first).
    pub(crate) fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0.5ms deadline does not busy-spin at 0ms.
            Some(d) => {
                i32::try_from(d.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX)
                    + i32::from(d.subsec_nanos() % 1_000_000 != 0)
            }
        };
        match &mut self.inner {
            Inner::Epoll { epfd, registered } => {
                let cap = (*registered).clamp(1, 1024);
                let mut buf = vec![sys::EpollEvent { events: 0, data: 0 }; cap];
                let n = loop {
                    match sys::epoll_wait(epfd.0, &mut buf, timeout_ms) {
                        Ok(n) => break n,
                        Err(e) if sys::is_interrupted(&e) => continue,
                        Err(e) => return Err(e),
                    }
                };
                for ev in &buf[..n] {
                    let (mask, data) = ({ ev.events }, { ev.data });
                    events.push(Event::from_mask(Token(data as usize), mask));
                }
                Ok(())
            }
            Inner::Poll { fds, tokens } => {
                let n = loop {
                    match sys::ppoll(fds, timeout_ms) {
                        Ok(n) => break n,
                        Err(e) if sys::is_interrupted(&e) => continue,
                        Err(e) => return Err(e),
                    }
                };
                if n > 0 {
                    for (p, &token) in fds.iter_mut().zip(tokens.iter()) {
                        let revents = u32::from(p.revents as u16);
                        if revents != 0 {
                            events.push(Event::from_mask(token, revents));
                            p.revents = 0;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl Inner {
    fn epoll() -> io::Result<Inner> {
        Ok(Inner::Epoll {
            epfd: sys::OwnedSysFd(sys::epoll_create1()?),
            registered: 0,
        })
    }

    fn poll() -> Inner {
        Inner::Poll {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{pipe2_nonblocking, write, OwnedSysFd};

    fn backends() -> Vec<Backend> {
        vec![Backend::Epoll, Backend::Poll]
    }

    #[test]
    fn both_backends_report_readability_identically() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            assert!(matches!(
                (&poller.inner, backend),
                (Inner::Epoll { .. }, Backend::Epoll) | (Inner::Poll { .. }, Backend::Poll)
            ));
            let (r, w) = pipe2_nonblocking().unwrap();
            let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
            poller.register(r.0, Token(7), Interest::READABLE).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: nothing ready yet");

            write(w.0, b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, Token(7));
            assert!(events[0].readable && !events[0].writable);
        }
    }

    #[test]
    fn writable_interest_fires_for_an_empty_pipe() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let (_r, w) = (OwnedSysFd(r), OwnedSysFd(w));
            let write_only = Interest {
                readable: false,
                writable: true,
            };
            poller.register(w.0, Token(3), write_only).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].writable, "{backend:?}");
        }
    }

    #[test]
    fn modify_switches_interest_off_and_deregister_silences() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
            write(w.0, b"x").unwrap();
            poller.register(r.0, Token(1), Interest::READABLE).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");

            // Interest off: same readiness no longer reported.
            poller
                .modify(
                    r.0,
                    Token(1),
                    Interest {
                        readable: false,
                        writable: false,
                    },
                )
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.readable),
                "{backend:?}: {events:?}"
            );

            poller.deregister(r.0);
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}");
        }
    }

    #[test]
    fn closed_peer_reports_hangup() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let r = OwnedSysFd(r);
            crate::sys::close(w).unwrap();
            poller.register(r.0, Token(9), Interest::READABLE).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(
                events[0].readable && events[0].closed,
                "{backend:?}: {:?}",
                events[0]
            );
        }
    }

    #[test]
    fn double_registration_is_rejected_on_both_backends() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let (r, w) = pipe2_nonblocking().unwrap();
            let (r, _w) = (OwnedSysFd(r), OwnedSysFd(w));
            poller.register(r.0, Token(1), Interest::READABLE).unwrap();
            let err = poller
                .register(r.0, Token(2), Interest::READABLE)
                .unwrap_err();
            assert_eq!(err.raw_os_error(), Some(17), "{backend:?}: EEXIST");
        }
    }
}
