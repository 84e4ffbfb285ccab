//! Minimal epoll syscall shim for the serve reactor (Linux only).
//!
//! The repo's shim policy (`crates/shims/*`) exists because the build
//! container has no crates.io registry: anything a real dependency would
//! provide is reimplemented std-only.  The same policy applies here — std
//! already links libc on Linux, so the four syscalls the readiness loop
//! needs are declared as raw `extern "C"` items rather than pulled in via
//! the `libc` crate, and everything `unsafe` stays behind the safe
//! [`Epoll`] wrapper in this module (the reactor itself contains no
//! `unsafe`).
//!
//! Only the constants the reactor actually uses are defined; values are the
//! stable Linux UAPI ones (`<sys/epoll.h>`).
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// `EPOLL_CTL_ADD` — register a new fd with an epoll instance.
const EPOLL_CTL_ADD: c_int = 1;
/// `EPOLL_CTL_DEL` — remove a registered fd.
const EPOLL_CTL_DEL: c_int = 2;
/// `EPOLL_CTL_MOD` — change a registered fd's interest set.
const EPOLL_CTL_MOD: c_int = 3;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (`EPOLLHUP`; always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

/// `EPOLL_CLOEXEC` (== `O_CLOEXEC`): spawned workers must not inherit the
/// reactor's epoll fd.
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// One `struct epoll_event`: an interest/readiness mask plus the caller's
/// 64-bit token (the reactor stores connection-slab slots there).
///
/// On x86-64 the kernel ABI declares the struct packed; other architectures
/// use natural alignment — mirrored here so `epoll_wait` writes land on the
/// fields Rust reads.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Readiness (from `wait`) or interest (to `add`/`modify`) mask.
    pub events: u32,
    /// Caller-chosen token identifying the fd.
    pub data: u64,
}

impl EpollEvent {
    /// An all-zero event (buffer fill for [`Epoll::wait`]).
    #[must_use]
    pub fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.  All `unsafe` in the reactor funnels through
/// these four methods; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    /// The `epoll_create1` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flag word and returns a new fd (or
        // -1); no pointers are involved.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `self.fd` is a live epoll fd (owned, closed only in
        // Drop), `fd` is a caller-supplied open descriptor, and the event
        // pointer is valid for the duration of the call.
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` with interest `events` under `token`.
    ///
    /// # Errors
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arms `fd`'s interest set (the write-side interest toggle).
    ///
    /// # Errors
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for readiness, filling `events` from the
    /// front; returns how many entries are valid.
    ///
    /// # Errors
    /// The `epoll_wait` errno as an [`io::Error`] (`EINTR` is retried
    /// internally).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer pointer/length describe a live mutable
            // slice, and maxevents never exceeds its length.
            let got = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    c_int::try_from(events.len()).unwrap_or(c_int::MAX),
                    timeout_ms,
                )
            };
            if got < 0 {
                let error = io::Error::last_os_error();
                if error.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(error);
            }
            return Ok(got as usize);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned and not closed anywhere else.
        let _ = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readability_and_honours_tokens() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(accepted.as_raw_fd(), EPOLLIN, 42).unwrap();

        // Nothing to read yet: a short wait times out empty.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let got = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(got, 1);
        // Copy the packed fields out before asserting (a reference into a
        // packed struct is ill-formed on x86-64).
        let (data, bits) = (events[0].data, events[0].events);
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0);

        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Re-arm for write interest, then deregister cleanly.
        epoll
            .modify(accepted.as_raw_fd(), EPOLLIN | EPOLLOUT, 42)
            .unwrap();
        assert!(epoll.wait(&mut events, 1000).unwrap() >= 1);
        epoll.delete(accepted.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
