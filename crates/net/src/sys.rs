//! Raw Linux syscalls, `libc`-free: every kernel entry the reactor
//! needs is issued through one inline-`asm!` instruction per
//! architecture. This is the **only** module in the workspace that
//! contains `unsafe` code, and all of it is confined to the syscall
//! stubs plus the two struct-pointer call sites wrapping them; every
//! public function in this module is safe and returns `io::Result`.
//!
//! Why not `libc`/`mio`/`tokio`: the build container has no crates.io
//! access, and the vendored-deps policy keeps external surface to the
//! handful of stand-ins under `vendor/`. The kernel ABI itself is a
//! stable public interface, so the reactor talks to it directly:
//!
//! * `epoll_create1` / `epoll_ctl` / `epoll_pwait` — the primary
//!   readiness backend (level-triggered).
//! * `ppoll` — the poll(2)-family fallback backend (aarch64 has no
//!   plain `poll` syscall, so the `p` variant is used everywhere).
//! * `pipe2` / `read` / `write` / `close` — the cross-thread wakeup
//!   pipe (`O_NONBLOCK | O_CLOEXEC` at creation, no fcntl dance).
//!
//! Errors follow the raw convention: a return value in `[-4095, -1]`
//! is `-errno`, mapped here onto [`io::Error::from_raw_os_error`].
//!
//! This module is the crate's single `#[allow(unsafe_code)]` island;
//! the allowance is granted at the `mod` declaration in `lib.rs` so
//! the exemption is visible next to the crate-level `deny`.

use std::io;

/// One pollable readiness record of the `ppoll` backend, ABI-identical
/// to the kernel's `struct pollfd` on every Linux architecture.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    /// File descriptor to watch (negative entries are ignored by the
    /// kernel, which the poll backend uses for tombstones).
    pub fd: i32,
    /// Requested event mask (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-filled result mask.
    pub revents: i16,
}

/// One epoll readiness record. On x86_64 the kernel declares the struct
/// packed (12 bytes); everywhere else it has natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Readiness mask (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` / …).
    pub events: u32,
    /// Caller-chosen cookie echoed back on readiness (the token).
    pub data: u64,
}

/// Readable (`poll`/`epoll` share the value).
pub(crate) const EV_IN: u32 = 0x001;
/// Writable.
pub(crate) const EV_OUT: u32 = 0x004;
/// Error condition.
pub(crate) const EV_ERR: u32 = 0x008;
/// Hangup (peer closed).
pub(crate) const EV_HUP: u32 = 0x010;
/// Peer shut down its write half (half-close visibility).
pub(crate) const EV_RDHUP: u32 = 0x2000;
/// `pollfd.fd` was not an open descriptor (poll backend only).
pub(crate) const EV_NVAL: u32 = 0x020;

/// `epoll_ctl` op: add a new descriptor.
pub(crate) const EPOLL_CTL_ADD: usize = 1;
/// `epoll_ctl` op: remove a descriptor.
pub(crate) const EPOLL_CTL_DEL: usize = 2;
/// `epoll_ctl` op: change a registered descriptor's mask.
pub(crate) const EPOLL_CTL_MOD: usize = 3;

const O_NONBLOCK: usize = 0o4000;
const O_CLOEXEC: usize = 0o2000000;
const EPOLL_CLOEXEC: usize = O_CLOEXEC;

/// `nanoseconds`-precision timeout for `ppoll`, ABI-identical to the
/// kernel's `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub(super) const READ: usize = 0;
    pub(super) const WRITE: usize = 1;
    pub(super) const CLOSE: usize = 3;
    pub(super) const PPOLL: usize = 271;
    pub(super) const EPOLL_CTL: usize = 233;
    pub(super) const EPOLL_PWAIT: usize = 281;
    pub(super) const EPOLL_CREATE1: usize = 291;
    pub(super) const PIPE2: usize = 293;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub(crate) const READ: usize = 63;
    pub(crate) const WRITE: usize = 64;
    pub(crate) const CLOSE: usize = 57;
    pub(crate) const PPOLL: usize = 73;
    pub(crate) const EPOLL_CTL: usize = 21;
    pub(crate) const EPOLL_PWAIT: usize = 22;
    pub(crate) const EPOLL_CREATE1: usize = 20;
    pub(crate) const PIPE2: usize = 59;
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "pchls-net issues raw Linux syscalls and supports linux/x86_64 and linux/aarch64 only"
);

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the Linux syscall ABI on x86_64 — number in rax, args in
    // rdi/rsi/rdx/r10/r8/r9, result in rax, rcx/r11 clobbered by the
    // `syscall` instruction. Callers guarantee any pointers passed are
    // valid for the kernel's documented access pattern.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the Linux syscall ABI on aarch64 — number in x8, args in
    // x0..x5, result in x0. Callers guarantee pointer validity.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack)
        );
    }
    ret
}

/// Maps a raw syscall return onto `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `EAGAIN`/`EWOULDBLOCK`: the one errno the reactor treats as a state,
/// not a failure.
pub(crate) fn is_would_block(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::WouldBlock
}

/// Whether the errno is `EINTR` (retry the call).
pub(crate) fn is_interrupted(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::Interrupted
}

/// `epoll_create1(EPOLL_CLOEXEC)` → the epoll instance fd.
pub(crate) fn epoll_create1() -> io::Result<i32> {
    // SAFETY: no pointers involved.
    let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
    check(ret).map(|fd| fd as i32)
}

/// `epoll_ctl(epfd, op, fd, &event)`. `event` is ignored by the kernel
/// for `EPOLL_CTL_DEL` but passed anyway (pre-2.6.9 compatibility).
pub(crate) fn epoll_ctl(epfd: i32, op: usize, fd: i32, event: &mut EpollEvent) -> io::Result<()> {
    // SAFETY: `event` is a live, exclusively-borrowed EpollEvent with
    // the kernel's expected layout; the kernel only reads it.
    let ret = unsafe {
        syscall6(
            nr::EPOLL_CTL,
            epfd as usize,
            op,
            fd as usize,
            std::ptr::from_mut(event) as usize,
            0,
            0,
        )
    };
    check(ret).map(|_| ())
}

/// `epoll_pwait(epfd, events, …, timeout_ms, NULL)` → number of ready
/// events written into `events`. `timeout_ms < 0` blocks indefinitely.
pub(crate) fn epoll_wait(
    epfd: i32,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    // SAFETY: `events` is a live mutable slice; the kernel writes at
    // most `events.len()` records into it. The sigmask pointer is null,
    // so the final size argument is ignored.
    let ret = unsafe {
        syscall6(
            nr::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0,
            8,
        )
    };
    check(ret)
}

/// `ppoll(fds, nfds, timeout, NULL)` → number of entries with non-zero
/// `revents`. `timeout_ms < 0` blocks indefinitely.
pub(crate) fn ppoll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let ts;
    let ts_ptr = if timeout_ms < 0 {
        std::ptr::null::<Timespec>()
    } else {
        ts = Timespec {
            tv_sec: i64::from(timeout_ms) / 1000,
            tv_nsec: (i64::from(timeout_ms) % 1000) * 1_000_000,
        };
        &raw const ts
    };
    // SAFETY: `fds` is a live mutable slice of kernel-layout PollFd;
    // the timespec (when non-null) outlives the call; sigmask is null.
    let ret = unsafe {
        syscall6(
            nr::PPOLL,
            fds.as_mut_ptr() as usize,
            fds.len(),
            ts_ptr as usize,
            0,
            8,
            0,
        )
    };
    check(ret)
}

/// `pipe2(O_NONBLOCK | O_CLOEXEC)` → `(read_fd, write_fd)`.
pub(crate) fn pipe2_nonblocking() -> io::Result<(i32, i32)> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a live 2-element i32 array the kernel fills.
    let ret = unsafe {
        syscall6(
            nr::PIPE2,
            fds.as_mut_ptr() as usize,
            O_NONBLOCK | O_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    };
    check(ret).map(|_| (fds[0], fds[1]))
}

/// `read(fd, buf)` → bytes read (`0` at EOF).
pub(crate) fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live mutable slice; the kernel writes at most
    // `buf.len()` bytes.
    let ret = unsafe {
        syscall6(
            nr::READ,
            fd as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    };
    check(ret)
}

/// `write(fd, buf)` → bytes written.
pub(crate) fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live slice the kernel only reads.
    let ret = unsafe {
        syscall6(
            nr::WRITE,
            fd as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    };
    check(ret)
}

/// `close(fd)`. Errors are reported but the fd is gone either way.
pub(crate) fn close(fd: i32) -> io::Result<()> {
    // SAFETY: no pointers involved.
    let ret = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    check(ret).map(|_| ())
}

/// A raw fd owned by the reactor (epoll instance, pipe halves), closed
/// on drop. Distinct from `std::os::fd::OwnedFd` only in that it stays
/// inside this crate's safe wrapper surface.
#[derive(Debug)]
pub(crate) struct OwnedSysFd(pub i32);

impl Drop for OwnedSysFd {
    fn drop(&mut self) {
        let _ = close(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trips_bytes_and_reports_would_block() {
        let (r, w) = pipe2_nonblocking().unwrap();
        let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
        // Empty pipe: nonblocking read must report WouldBlock.
        let mut buf = [0u8; 8];
        let err = read(r.0, &mut buf).unwrap_err();
        assert!(is_would_block(&err), "{err}");
        assert_eq!(write(w.0, b"ping").unwrap(), 4);
        assert_eq!(read(r.0, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
    }

    #[test]
    fn pipe_read_sees_eof_after_writer_closes() {
        let (r, w) = pipe2_nonblocking().unwrap();
        let r = OwnedSysFd(r);
        close(w).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(read(r.0, &mut buf).unwrap(), 0, "EOF reads zero");
    }

    #[test]
    fn epoll_reports_pipe_readability() {
        let epfd = OwnedSysFd(epoll_create1().unwrap());
        let (r, w) = pipe2_nonblocking().unwrap();
        let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
        let mut ev = EpollEvent {
            events: EV_IN,
            data: 42,
        };
        epoll_ctl(epfd.0, EPOLL_CTL_ADD, r.0, &mut ev).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing written yet: a zero-timeout wait returns no events.
        assert_eq!(epoll_wait(epfd.0, &mut events, 0).unwrap(), 0);
        write(w.0, b"x").unwrap();
        let n = epoll_wait(epfd.0, &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let got = events[0];
        assert_eq!({ got.data }, 42);
        assert_ne!({ got.events } & EV_IN, 0);
    }

    #[test]
    fn ppoll_reports_pipe_readability_and_times_out() {
        let (r, w) = pipe2_nonblocking().unwrap();
        let (r, w) = (OwnedSysFd(r), OwnedSysFd(w));
        let mut fds = [PollFd {
            fd: r.0,
            events: EV_IN as i16,
            revents: 0,
        }];
        assert_eq!(ppoll(&mut fds, 0).unwrap(), 0, "nothing ready yet");
        write(w.0, b"x").unwrap();
        assert_eq!(ppoll(&mut fds, 1000).unwrap(), 1);
        assert_ne!(u32::from(fds[0].revents as u16) & EV_IN, 0);
    }

    #[test]
    fn errors_map_to_errno() {
        // -1 is never a valid fd; close must fail with EBADF.
        let err = close(-1).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "{err}");
    }
}
