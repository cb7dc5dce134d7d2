//! `pchls-net` — a hand-rolled nonblocking reactor for the serve tier.
//!
//! The workspace vendors every dependency, so there is no mio, no
//! tokio, and no libc crate to lean on. This crate builds the whole
//! stack from raw Linux syscalls up:
//!
//! - `sys`: inline-asm syscall shims (the only `unsafe` in the
//!   crate) — epoll, ppoll, pipe2, read/write/close with errno
//!   mapping.
//! - `Poller`: level-triggered readiness over epoll, with a
//!   poll(2)-family fallback backend that doubles as a differential
//!   test oracle.
//! - [`Waker`]: cross-thread wakeup over a
//!   nonblocking pipe, coalescing.
//! - [`LineCodec`] / [`WriteBuffer`]: bounded line framing for the
//!   JSON-lines protocol and cursor-tracked outbound buffering.
//! - [`Reactor`]: the composed event loop `pchls-serve` drives its
//!   accept loop and connection I/O on; each `poll` also takes one
//!   optional deadline (serve's periodic stats line).
//!
//! Everything above `sys` is safe code; `unsafe` is confined to the
//! syscall shims and reviewed in one place.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

#[allow(unsafe_code)]
mod sys;

mod framing;
mod poller;
mod reactor;
mod wake;

pub use framing::{Frame, FrameError, LineCodec, WriteBuffer};
pub use poller::{Backend, Event, Interest, Token};
pub use reactor::Reactor;
pub use wake::Waker;
