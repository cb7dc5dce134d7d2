//! Cross-thread reactor wakeup over a nonblocking pipe.
//!
//! The reactor parks inside `Poller::wait`. Worker threads that finish
//! a job (or any other thread that wants the loop's attention) call
//! [`Waker::wake`], which writes one byte into a pipe whose read end is
//! registered with the poller — readiness on that fd is the wake
//! signal. A full pipe means a wake is already pending, so `EAGAIN` is
//! success; the reactor drains the pipe on each wake so signals
//! coalesce instead of accumulating.

use std::io;
use std::sync::Arc;

use crate::sys;

#[derive(Debug)]
struct Pipe {
    read_fd: i32,
    write_fd: i32,
}

impl Drop for Pipe {
    fn drop(&mut self) {
        let _ = sys::close(self.read_fd);
        let _ = sys::close(self.write_fd);
    }
}

/// Handle threads use to rouse a parked reactor. Cheap to clone; all
/// clones share one pipe.
#[derive(Debug, Clone)]
pub struct Waker {
    pipe: Arc<Pipe>,
}

/// The reactor-side read end of a wakeup pipe.
///
/// Owns nothing extra — the fds live as long as any [`Waker`] clone or
/// this half does.
#[derive(Debug)]
pub(crate) struct WakeReader {
    pipe: Arc<Pipe>,
}

/// Creates a connected wakeup pair: register
/// [`WakeReader::fd`] with the poller, hand the [`Waker`] to producer
/// threads.
pub(crate) fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    let (read_fd, write_fd) = sys::pipe2_nonblocking()?;
    let pipe = Arc::new(Pipe { read_fd, write_fd });
    Ok((Waker { pipe: pipe.clone() }, WakeReader { pipe }))
}

impl Waker {
    /// Signals the reactor. Idempotent while a wake is pending — a full
    /// pipe already guarantees the loop will run, so `EAGAIN` is `Ok`.
    pub fn wake(&self) -> io::Result<()> {
        match sys::write(self.pipe.write_fd, &[1u8]) {
            Ok(_) => Ok(()),
            Err(e) if sys::is_would_block(&e) => Ok(()),
            Err(e) if sys::is_interrupted(&e) => self.wake(),
            Err(e) => Err(e),
        }
    }
}

impl WakeReader {
    /// The fd to register for readable interest.
    #[must_use]
    pub(crate) fn fd(&self) -> i32 {
        self.pipe.read_fd
    }

    /// Consumes all pending wake bytes, coalescing any number of
    /// [`Waker::wake`] calls into one observed wake. Returns whether
    /// anything was drained.
    pub(crate) fn drain(&self) -> io::Result<bool> {
        let mut buf = [0u8; 64];
        let mut any = false;
        loop {
            match sys::read(self.pipe.read_fd, &mut buf) {
                Ok(0) => return Ok(any), // writer closed: nothing more will come
                Ok(_) => any = true,
                Err(e) if sys::is_would_block(&e) => return Ok(any),
                Err(e) if sys::is_interrupted(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_then_drain_round_trips() {
        let (waker, reader) = wake_pair().unwrap();
        assert!(!reader.drain().unwrap(), "no wake pending initially");
        waker.wake().unwrap();
        waker.wake().unwrap();
        assert!(reader.drain().unwrap(), "wakes observed");
        assert!(!reader.drain().unwrap(), "wakes coalesced and consumed");
    }

    #[test]
    fn wake_survives_a_full_pipe() {
        let (waker, reader) = wake_pair().unwrap();
        // A pipe holds 64 KiB by default; hammer well past that.
        for _ in 0..100_000 {
            waker.wake().unwrap();
        }
        assert!(reader.drain().unwrap());
    }

    #[test]
    fn waker_clones_share_the_pipe() {
        let (waker, reader) = wake_pair().unwrap();
        let clone = waker.clone();
        drop(waker);
        clone.wake().unwrap();
        assert!(reader.drain().unwrap());
    }
}
