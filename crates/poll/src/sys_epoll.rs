//! Linux/Android backend: `epoll`, level-triggered.
//!
//! The syscalls are declared `extern "C"` against the libc `std` already
//! links; every call site is a one-line `unsafe` block carrying an
//! `audited-ffi` marker matched by the workspace lint allowlist. The
//! arguments are all plain integers or pointers to locals that outlive
//! the call, so each block's safety argument is the same: a thin FFI
//! shim with no aliasing, no retained pointers, and errors read back
//! through `io::Error::last_os_error()`.

use crate::{classify, Event, Interest, PollError};
use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Events reported per `epoll_wait` round. A busy reactor just calls
/// again; level triggering re-reports anything unconsumed.
const WAIT_BATCH: usize = 256;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32-bit and 64-bit layouts match); natural alignment
/// everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn mask(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.read {
        // A peer half-close is heard with read interest only: it stays
        // reported until the read that observes the EOF, so arming it on
        // a socket the caller is not reading would fire every wait.
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.write {
        m |= EPOLLOUT;
    }
    m
}

pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> Result<Poller, PollError> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) }; // audited-ffi: thin syscall shim, see module docs
        if epfd < 0 {
            return Err(classify(io::Error::last_os_error()));
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> Result<(), PollError> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }; // audited-ffi: thin syscall shim, see module docs
        if rc < 0 {
            return Err(classify(io::Error::last_os_error()));
        }
        Ok(())
    }

    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), PollError> {
        self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), PollError> {
        self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
    }

    pub fn deregister(&self, fd: RawFd) -> Result<(), PollError> {
        // The event pointer is ignored for DEL on every kernel this repo
        // targets, but pre-2.6.9 kernels required it non-null; passing a
        // real one costs nothing.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> Result<(), PollError> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round a sub-millisecond timeout up to 1ms so a caller
            // asking for "a short wait" does not busy-spin.
            Some(d) if !d.is_zero() && d.as_millis() == 0 => 1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, timeout_ms) }; // audited-ffi: thin syscall shim, see module docs
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                // EINTR: a legal spurious wakeup, not a failure.
                return Ok(());
            }
            return Err(classify(e));
        }
        for ev in buf.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                // Hangup and error count as readable: the next read()
                // observes the EOF or error through the path the caller
                // already handles.
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = unsafe { close(self.epfd) }; // audited-ffi: thin syscall shim, see module docs
    }
}
