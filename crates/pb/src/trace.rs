//! Event tracing hooks for the checking subsystem (`cobra-check`).
//!
//! Compiled only under the `check` feature; with the feature off every
//! hook call site disappears entirely, so the hot paths carry zero cost.
//! With the feature on, a hook on a thread that is not part of a capture
//! is one thread-local load and an early return.
//!
//! A capture window belongs to the thread that called [`capture`] and to
//! the threads it forked through the token protocol below; every other
//! thread in the process (parallel tests, say) stays outside it, whatever
//! it bins meanwhile.
//!
//! The trace is a flat, globally-serialized event log. Happens-before
//! edges between threads are expressed with an explicit fork/join token
//! protocol: the parent emits [`Event::Fork`] before spawning, the child
//! emits [`Event::ChildStart`] with the same token as its first action,
//! and the parent emits [`Event::Join`] after `join()` returns. The
//! FastTrack-style detector in `cobra-check` rebuilds vector clocks from
//! exactly these three edges.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One dynamic event in a traced binning/accumulate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The parent thread is about to spawn a child identified by `token`.
    Fork {
        /// Trace thread id of the spawning thread.
        parent: u32,
        /// Unique token pairing this fork with a `ChildStart`/`Join`.
        token: u64,
    },
    /// First action of a spawned child; pairs with the `Fork` of `token`.
    ChildStart {
        /// Trace thread id of the child thread.
        thread: u32,
        /// Token of the matching `Fork`.
        token: u64,
    },
    /// The parent observed the child's termination (`join()` returned).
    Join {
        /// Trace thread id of the joining (parent) thread.
        parent: u32,
        /// Token of the matching `Fork`.
        token: u64,
    },
    /// A tuple was routed into a bin during the Binning phase.
    BinWrite {
        /// Trace thread id of the writer.
        thread: u32,
        /// Bin index the tuple was appended to.
        bin: u32,
        /// The tuple's key.
        key: u32,
        /// log2 of the bin key range (for the routing invariant).
        shift: u32,
    },
    /// A binner's buffered tuples were flushed ([`ALL_BINS`] = all bins).
    BinFlush {
        /// Trace thread id of the flusher.
        thread: u32,
        /// Flushed bin index, or [`ALL_BINS`].
        bin: u32,
    },
    /// An output-array write during the Accumulate phase.
    AccWrite {
        /// Trace thread id of the writer.
        thread: u32,
        /// Bin whose replay produced this write.
        bin: u32,
        /// The output key being written.
        key: u32,
        /// log2 of the bin key range (for the ownership invariant).
        shift: u32,
    },
}

/// Sentinel `bin` value in [`Event::BinFlush`] meaning "all bins".
pub const ALL_BINS: u32 = u32::MAX;

/// The token [`fork`] hands out on a thread outside any capture window:
/// the child it names stays outside too.
const NO_TOKEN: u64 = u64::MAX;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);
static LOG: Mutex<Vec<Event>> = Mutex::new(Vec::new());
/// Serializes concurrent `capture` calls (e.g. parallel test threads).
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Whether this thread is inside a capture window: the capturing
    /// thread for the duration of `capture`, a forked child for life.
    static IN_WINDOW: Cell<bool> = const { Cell::new(false) };
}

/// Locks `m`, shrugging off poison: the log holds plain-old-data and a
/// panicking recorder leaves it structurally intact.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Stable trace id of the calling thread (assigned on first use, never
/// reused within a process).
pub fn thread_id() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            v
        } else {
            // ordering: Relaxed — a fresh-id counter; uniqueness is all we
            // need and fetch_add provides it on any ordering.
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(id);
            id
        }
    })
}

#[inline]
fn record(ev: Event) {
    if IN_WINDOW.get() {
        lock(&LOG).push(ev);
    }
}

/// Runs `f` with event recording enabled on the calling thread (and on
/// every thread it forks) and returns its result together with the events
/// recorded during the run. Concurrent captures are serialized on a global
/// gate, so traces never interleave.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    struct CloseOnDrop;
    impl Drop for CloseOnDrop {
        fn drop(&mut self) {
            IN_WINDOW.set(false);
        }
    }
    let _gate = lock(&GATE);
    lock(&LOG).clear();
    IN_WINDOW.set(true);
    let window = CloseOnDrop;
    let r = f();
    drop(window);
    let events = std::mem::take(&mut *lock(&LOG));
    (r, events)
}

/// Emits a [`Event::Fork`] and returns the token the spawned child must
/// pass to [`child_start`] and the parent to [`join`].
pub fn fork() -> u64 {
    if !IN_WINDOW.get() {
        return NO_TOKEN;
    }
    // ordering: Relaxed — token uniqueness only; the fork/join ordering the
    // detector relies on comes from the log serialization, not this counter.
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    record(Event::Fork {
        parent: thread_id(),
        token,
    });
    token
}

/// First call in a spawned child: joins the parent's capture window (if
/// it was in one) and emits [`Event::ChildStart`].
pub fn child_start(token: u64) {
    IN_WINDOW.set(token != NO_TOKEN);
    record(Event::ChildStart {
        thread: thread_id(),
        token,
    });
}

/// Called by the parent after `join()` returns: emits [`Event::Join`].
pub fn join(token: u64) {
    record(Event::Join {
        parent: thread_id(),
        token,
    });
}

/// Records a Binning-phase tuple write into `bin`.
#[inline]
pub fn bin_write(bin: usize, key: u32, shift: u32) {
    record(Event::BinWrite {
        thread: thread_id(),
        bin: bin as u32,
        key,
        shift,
    });
}

/// Records a whole-binner flush (C-Buffers drained into bins).
#[inline]
pub fn bin_flush_all() {
    record(Event::BinFlush {
        thread: thread_id(),
        bin: ALL_BINS,
    });
}

/// Records an Accumulate-phase output write for `key` while replaying `bin`.
#[inline]
pub fn acc_write(bin: usize, key: u32, shift: u32) {
    record(Event::AccWrite {
        thread: thread_id(),
        bin: bin as u32,
        key,
        shift,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_only_events_within_the_window() {
        bin_write(0, 1, 0); // outside: dropped
        let ((), events) = capture(|| {
            bin_write(3, 200, 6);
            acc_write(3, 200, 6);
        });
        bin_write(0, 2, 0); // outside: dropped
        let me = thread_id();
        assert_eq!(
            events,
            vec![
                Event::BinWrite {
                    thread: me,
                    bin: 3,
                    key: 200,
                    shift: 6
                },
                Event::AccWrite {
                    thread: me,
                    bin: 3,
                    key: 200,
                    shift: 6
                },
            ]
        );
    }

    #[test]
    fn threads_outside_the_window_are_not_recorded() {
        let ((), events) = capture(|| {
            // Neither forked by the capturing thread nor given its token.
            std::thread::spawn(|| {
                bin_write(1, 2, 3);
                child_start(fork());
                bin_write(1, 2, 3);
            })
            .join()
            .expect("bystander ok");
        });
        assert_eq!(events, vec![]);
    }

    #[test]
    fn fork_join_tokens_pair_up() {
        let ((), events) = capture(|| {
            let token = fork();
            let handle = std::thread::spawn(move || child_start(token));
            handle.join().expect("child ok");
            join(token);
        });
        let mut forked = None;
        for ev in &events {
            match *ev {
                Event::Fork { token, .. } => forked = Some(token),
                Event::ChildStart { token, .. } | Event::Join { token, .. } => {
                    assert_eq!(Some(token), forked);
                }
                _ => {}
            }
        }
        assert_eq!(events.len(), 3);
    }
}
