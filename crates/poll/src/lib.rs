//! # cobra-poll — a minimal std-only readiness poller
//!
//! The smallest OS-event-queue wrapper that can drive the `cobra-serve`
//! reactor: register file descriptors with a `u64` token, ask for read
//! and/or write interest, and [`wait`](Poller::wait) for a batch of
//! readiness events. No dependencies — the syscall surface is declared
//! with `extern "C"` against the libc that `std` already links, and the
//! handful of `unsafe` call sites live in one audited backend module per
//! OS (`#![deny(unsafe_code)]` everywhere else).
//!
//! Backends:
//!
//! * **Linux / Android** — `epoll`, level-triggered. Level triggering is
//!   deliberate: a connection with unread bytes keeps reporting readable,
//!   so a reactor that caps per-round work never strands data ("re-arm"
//!   is free).
//! * **macOS / iOS / FreeBSD** — `kqueue`, also level-triggered (no
//!   `EV_CLEAR`).
//! * anywhere else — a stub whose [`Poller::new`] returns
//!   [`PollError::Unsupported`], so the crate (and everything above it)
//!   still compiles.
//!
//! Semantics the callers rely on:
//!
//! * **Level-triggered**: interest stays armed until changed with
//!   [`modify`](Poller::modify) or [`deregister`](Poller::deregister);
//!   an event does not disarm it.
//! * **Spurious wakeups are legal**: [`wait`](Poller::wait) may return
//!   with no events (timeout, `EINTR`, kernel whim). Callers must treat
//!   an empty batch as "nothing to do", never as an error.
//! * **Typed resource exhaustion**: running out of file descriptors or
//!   kernel watch space surfaces as [`PollError::FdExhausted`], not a
//!   panic — the reactor sheds load instead of dying.
//! * **Peer hangup / socket errors** are reported as readable (and
//!   writable, where the backend says so): the next `read` observes the
//!   EOF or error, which is the one code path the caller already has.
//!   A half-close (the peer shut its write side) is heard with read
//!   interest only: level-triggered, it stays reported until a read
//!   observes it, so without read interest it would fire on every wait.
//!   epoll reports a full hangup or an error whatever the mask, so to a
//!   registration without read interest a readable event means the
//!   connection is over; kqueue reports one only on an armed filter.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::time::Duration;

#[cfg(any(target_os = "linux", target_os = "android"))]
#[allow(unsafe_code)]
mod sys_epoll;
#[cfg(any(target_os = "linux", target_os = "android"))]
use sys_epoll as sys;

#[cfg(any(target_os = "macos", target_os = "ios", target_os = "freebsd"))]
#[allow(unsafe_code)]
mod sys_kqueue;
#[cfg(any(target_os = "macos", target_os = "ios", target_os = "freebsd"))]
use sys_kqueue as sys;

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
)))]
mod sys_unsupported;
#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
)))]
use sys_unsupported as sys;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up or
    /// half-closed).
    pub read: bool,
    /// Wake when the descriptor is writable again.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of a request connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Read and write interest — a connection with a backed-up outbox.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable now (includes EOF/hangup/error — `read` will tell).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

/// Everything the poller can fail with, typed so callers can tell
/// "shed load" from "give up".
#[derive(Debug)]
pub enum PollError {
    /// The process or system is out of file descriptors, or the kernel
    /// is out of event-watch space (`EMFILE`/`ENFILE`/`ENOSPC`/`ENOMEM`).
    /// Stop accepting and retry later; do not panic.
    FdExhausted,
    /// The descriptor is not registered (`ENOENT` on modify/deregister).
    NotRegistered,
    /// The descriptor is already registered (`EEXIST` on register).
    ///
    /// **epoll-only.** kqueue's `EV_ADD` is an upsert: registering an
    /// already-registered descriptor there silently succeeds and
    /// updates the interest/token instead. Callers must not rely on
    /// this variant for correctness — track registration state
    /// themselves (the reactor's connection map already does).
    AlreadyRegistered,
    /// No event-queue backend for this OS.
    Unsupported,
    /// Any other OS-level failure.
    Io(io::Error),
}

impl fmt::Display for PollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PollError::FdExhausted => write!(f, "file descriptors or event-watch space exhausted"),
            PollError::NotRegistered => write!(f, "descriptor not registered with the poller"),
            PollError::AlreadyRegistered => {
                write!(f, "descriptor already registered with the poller")
            }
            PollError::Unsupported => write!(f, "no event-queue backend for this OS"),
            PollError::Io(e) => write!(f, "poller i/o error: {e}"),
        }
    }
}

impl std::error::Error for PollError {}

impl From<PollError> for io::Error {
    fn from(e: PollError) -> io::Error {
        match e {
            PollError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

// Shared errno values (identical across Linux and the BSD family for
// the handful we classify).
const ENOENT: i32 = 2;
const ENOMEM: i32 = 12;
const EEXIST: i32 = 17;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;
const ENOSPC: i32 = 28;

/// Maps a raw OS error onto the typed [`PollError`] variants; anything
/// unrecognized stays an [`PollError::Io`].
fn classify(e: io::Error) -> PollError {
    match e.raw_os_error() {
        Some(EMFILE) | Some(ENFILE) | Some(ENOSPC) | Some(ENOMEM) => PollError::FdExhausted,
        Some(ENOENT) => PollError::NotRegistered,
        Some(EEXIST) => PollError::AlreadyRegistered,
        _ => PollError::Io(e),
    }
}

/// One OS event queue. Register descriptors with a token, then
/// [`wait`](Self::wait) for batches of [`Event`]s.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates the event queue. Running out of descriptors surfaces as
    /// [`PollError::FdExhausted`].
    pub fn new() -> Result<Poller, PollError> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest
    /// (level-triggered).
    ///
    /// Registering a descriptor that is already registered fails with
    /// [`PollError::AlreadyRegistered`] on epoll only; kqueue treats it
    /// as an update (see that variant's docs). A failed registration
    /// never leaves a partial one behind on either backend.
    pub fn register(
        &self,
        fd: &impl std::os::fd::AsRawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), PollError> {
        self.inner.register(fd.as_raw_fd(), token, interest)
    }

    /// Changes an existing registration's interest (and token).
    pub fn modify(
        &self,
        fd: &impl std::os::fd::AsRawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), PollError> {
        self.inner.modify(fd.as_raw_fd(), token, interest)
    }

    /// Removes a registration. Deregistering something never registered
    /// (or already auto-removed by a close) is [`PollError::NotRegistered`].
    pub fn deregister(&self, fd: &impl std::os::fd::AsRawFd) -> Result<(), PollError> {
        self.inner.deregister(fd.as_raw_fd())
    }

    /// Waits up to `timeout` (`None` = forever) and fills `events` with
    /// this round's readiness batch. The vector is cleared first; an
    /// empty result is a legal spurious wakeup or timeout, not an error
    /// (`EINTR` is swallowed the same way).
    pub fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> Result<(), PollError> {
        events.clear();
        self.inner.wait(events, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_exhaustion_errnos_to_the_typed_variant() {
        for errno in [EMFILE, ENFILE, ENOSPC, ENOMEM] {
            assert!(matches!(
                classify(io::Error::from_raw_os_error(errno)),
                PollError::FdExhausted
            ));
        }
        assert!(matches!(
            classify(io::Error::from_raw_os_error(ENOENT)),
            PollError::NotRegistered
        ));
        assert!(matches!(
            classify(io::Error::from_raw_os_error(EEXIST)),
            PollError::AlreadyRegistered
        ));
        assert!(matches!(
            classify(io::Error::from_raw_os_error(1)), // EPERM
            PollError::Io(_)
        ));
    }
}
