//! macOS/iOS/FreeBSD backend: `kqueue`, level-triggered (no `EV_CLEAR`).
//!
//! Same audited-FFI discipline as the epoll backend: syscalls declared
//! against the libc `std` links, one-line `unsafe` call sites with an
//! `audited-ffi` marker, arguments limited to integers and pointers to
//! locals that outlive the call.
//!
//! kqueue has no "modify": read and write interest are two independent
//! filters, so register/modify translate to an `EV_ADD` for each wanted
//! filter and an `EV_DELETE` for each unwanted one (ignoring `ENOENT`
//! from deleting a filter that was never armed). Both changes go to the
//! kernel in a *single* `kevent` changelist with `EV_RECEIPT`, which
//! reports each change's outcome individually (as an `EV_ERROR` event
//! with `data` = errno, 0 on success) without draining pending events;
//! on a partial failure the change that did land is rolled back, so a
//! failed register/modify never leaves a half-applied registration.
//!
//! One contract divergence from the epoll backend is inherent: `EV_ADD`
//! is an upsert, so registering an fd that is already registered
//! silently updates it instead of failing with `AlreadyRegistered`
//! (epoll's `EEXIST`). See the [`crate::PollError::AlreadyRegistered`]
//! docs.

use crate::{classify, Event, Interest, PollError, ENOENT};
use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::ptr;
use std::time::Duration;

const EVFILT_READ: i16 = -1;
const EVFILT_WRITE: i16 = -2;
const EV_ADD: u16 = 0x0001;
const EV_DELETE: u16 = 0x0002;
const EV_RECEIPT: u16 = 0x0040;
const EV_ERROR: u16 = 0x4000;

/// Events reported per `kevent` round (see the epoll backend).
const WAIT_BATCH: usize = 256;

/// `struct kevent` — the Darwin layout.
#[cfg(any(target_os = "macos", target_os = "ios"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct KEvent {
    ident: usize,
    filter: i16,
    flags: u16,
    fflags: u32,
    data: isize,
    udata: *mut c_void,
}

/// `struct kevent` — the FreeBSD (12+) layout, with the `ext` tail.
#[cfg(target_os = "freebsd")]
#[repr(C)]
#[derive(Clone, Copy)]
struct KEvent {
    ident: usize,
    filter: i16,
    flags: u16,
    fflags: u32,
    data: i64,
    udata: *mut c_void,
    ext: [u64; 4],
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn kqueue() -> c_int;
    fn kevent(
        kq: c_int,
        changelist: *const KEvent,
        nchanges: c_int,
        eventlist: *mut KEvent,
        nevents: c_int,
        timeout: *const Timespec,
    ) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn kev(fd: RawFd, filter: i16, flags: u16, token: u64) -> KEvent {
    KEvent {
        ident: fd as usize,
        filter,
        flags,
        fflags: 0,
        data: 0,
        udata: token as usize as *mut c_void,
        #[cfg(target_os = "freebsd")]
        ext: [0; 4],
    }
}

pub struct Poller {
    kq: RawFd,
}

impl Poller {
    pub fn new() -> Result<Poller, PollError> {
        let kq = unsafe { kqueue() }; // audited-ffi: thin syscall shim, see module docs
        if kq < 0 {
            return Err(classify(io::Error::last_os_error()));
        }
        Ok(Poller { kq })
    }

    /// Applies one filter change; `ignore_enoent` makes "delete a filter
    /// that was never armed" a no-op.
    fn change(&self, ev: KEvent, ignore_enoent: bool) -> Result<(), PollError> {
        let rc = unsafe { kevent(self.kq, &ev, 1, ptr::null_mut(), 0, ptr::null()) }; // audited-ffi: thin syscall shim, see module docs
        if rc < 0 {
            let e = io::Error::last_os_error();
            if ignore_enoent && e.raw_os_error() == Some(ENOENT) {
                return Ok(());
            }
            return Err(classify(e));
        }
        Ok(())
    }

    /// Applies both filter changes in one `kevent` changelist.
    /// `EV_RECEIPT` makes the kernel answer every change with its own
    /// `EV_ERROR` receipt (`data` = errno, 0 on success, changelist
    /// order) instead of failing the call part-way through, so a
    /// partial application is visible: if either change failed, any
    /// `EV_ADD` that succeeded is rolled back before the error
    /// returns, leaving the registration as it was.
    fn apply(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), PollError> {
        let changes = [
            if interest.read {
                kev(fd, EVFILT_READ, EV_ADD | EV_RECEIPT, token)
            } else {
                kev(fd, EVFILT_READ, EV_DELETE | EV_RECEIPT, 0)
            },
            if interest.write {
                kev(fd, EVFILT_WRITE, EV_ADD | EV_RECEIPT, token)
            } else {
                kev(fd, EVFILT_WRITE, EV_DELETE | EV_RECEIPT, 0)
            },
        ];
        let mut receipts = [kev(0, 0, 0, 0); 2];
        let out = receipts.as_mut_ptr();
        let rc = unsafe { kevent(self.kq, changes.as_ptr(), 2, out, 2, ptr::null()) }; // audited-ffi: thin syscall shim, see module docs
        if rc < 0 {
            return Err(classify(io::Error::last_os_error()));
        }
        let mut landed = [false; 2];
        let mut failed: Option<PollError> = None;
        for (i, receipt) in receipts.iter().take(rc as usize).enumerate() {
            let errno = if receipt.flags & EV_ERROR != 0 {
                receipt.data as i32
            } else {
                0
            };
            let deleting = changes[i].flags & EV_DELETE != 0;
            if errno == 0 {
                landed[i] = !deleting;
            } else if !(deleting && errno == ENOENT) {
                // Deleting a filter that was never armed stays a no-op;
                // anything else fails the whole operation (first error
                // wins).
                failed.get_or_insert(classify(io::Error::from_raw_os_error(errno)));
            }
        }
        if let Some(err) = failed {
            for (i, change) in changes.iter().enumerate() {
                if landed[i] && change.flags & EV_ADD != 0 {
                    let _ = self.change(kev(fd, change.filter, EV_DELETE, 0), true);
                }
            }
            return Err(err);
        }
        Ok(())
    }

    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), PollError> {
        self.apply(fd, token, interest)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), PollError> {
        self.apply(fd, token, interest)
    }

    pub fn deregister(&self, fd: RawFd) -> Result<(), PollError> {
        self.change(kev(fd, EVFILT_READ, EV_DELETE, 0), true)?;
        self.change(kev(fd, EVFILT_WRITE, EV_DELETE, 0), true)
    }

    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> Result<(), PollError> {
        let ts;
        let ts_ptr = match timeout {
            None => ptr::null(),
            Some(d) => {
                ts = Timespec {
                    tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
                    tv_nsec: i64::from(d.subsec_nanos()),
                };
                &ts as *const Timespec
            }
        };
        let mut buf = [kev(0, 0, 0, 0); WAIT_BATCH];
        let nevs = WAIT_BATCH as c_int;
        let n = unsafe { kevent(self.kq, ptr::null(), 0, buf.as_mut_ptr(), nevs, ts_ptr) }; // audited-ffi: thin syscall shim, see module docs
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(classify(e));
        }
        for ev in buf.iter().take(n as usize) {
            // `EV_EOF` and `EV_ERROR` ride the filter that reported them,
            // and only an armed filter reports: an EOF counts as readable
            // only with read interest (as the epoll backend arms
            // `EPOLLRDHUP`). On the write filter it means the peer stopped
            // reading, which the next write observes as an error.
            out.push(Event {
                token: ev.udata as usize as u64,
                readable: ev.filter == EVFILT_READ,
                writable: ev.filter == EVFILT_WRITE,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = unsafe { close(self.kq) }; // audited-ffi: thin syscall shim, see module docs
    }
}
