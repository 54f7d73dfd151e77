//! Push-subscription fan-out with bounded queues and lossless lag.
//!
//! A [`DeltaHub`] sits on the publish path: for every published epoch it
//! receives the epoch's changed `(key, value)` entries once (computed by
//! [`diff_range`](crate::diff::diff_range) against the previous epoch)
//! and fans a per-subscriber slice of them out to every registered
//! subscriber. Per-subscriber state is a bounded queue of per-epoch
//! deltas plus a *lag marker*:
//!
//! * Queue has room → the epoch's delta is enqueued (an epoch that
//!   changed nothing in the subscriber's range still enqueues an empty
//!   delta, so delivery is provably gap-free: consecutive `epoch`s,
//!   every epoch announced).
//! * Queue is full → the delta is **not** silently dropped; the
//!   subscriber enters *lagged* state and the marker records the newest
//!   missed epoch, advancing with every further publish.
//! * A lagged subscriber first drains its queued (older) deltas in
//!   order, then observes one [`SubMsg::Lagged`] carrying
//!   `resume_epoch` — the newest missed epoch. Re-syncing with a diff
//!   from its last applied epoch to `resume_epoch` restores losslessness
//!   (diff entries are absolute values, so the re-sync composes), and
//!   the hub resumes normal enqueueing at `resume_epoch + 1` under the
//!   same lock, so not a single epoch escapes either the queue or the
//!   marker.
//!
//! Disconnects are clean: [`DeltaHub::unsubscribe`] (called by the
//! server on `UNSUBSCRIBE` or on connection teardown) removes the
//! subscriber from the table and wakes its consumer with
//! [`SubMsg::Closed`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One epoch's delta as seen by one subscriber: a shared slice of the
/// epoch's sorted changed-entry list, clipped to the subscriber's range.
#[derive(Debug, Clone)]
pub struct SubDelta<A> {
    epoch: u64,
    all: Arc<Vec<(u32, A)>>,
    start: usize,
    end: usize,
}

impl<A> SubDelta<A> {
    /// The epoch this delta produces (applying it on top of epoch - 1
    /// state yields epoch state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The changed `(key, absolute_value)` pairs inside the subscriber's
    /// range, sorted by key. May be empty — an empty delta still
    /// announces its epoch.
    pub fn entries(&self) -> &[(u32, A)] {
        &self.all[self.start..self.end]
    }
}

/// What a subscriber's consumer observes next.
#[derive(Debug)]
pub enum SubMsg<A> {
    /// The next per-epoch delta, in epoch order.
    Delta(SubDelta<A>),
    /// The bounded queue overflowed; epochs through `resume_epoch` were
    /// skipped. Re-sync with a diff to `resume_epoch`; delivery resumes
    /// at `resume_epoch + 1`.
    Lagged {
        /// Newest epoch the subscriber missed.
        resume_epoch: u64,
    },
    /// The subscription was closed (unsubscribe, disconnect, shutdown).
    Closed,
    /// Nothing arrived within the timeout; poll again.
    Idle,
}

struct SubQueue<A> {
    queue: VecDeque<SubDelta<A>>,
    /// Newest missed epoch while lagged. Ordering invariant: every epoch
    /// in `queue` precedes every epoch this marker covers, so consumers
    /// drain the queue before observing the lag.
    lagged: Option<u64>,
    closed: bool,
}

struct SubShared<A> {
    lo: u32,
    hi: u32,
    cap: usize,
    sub_q: Mutex<SubQueue<A>>,
    cv: Condvar,
}

/// A registered subscriber's consuming end (held by the subscribed
/// connection's state server-side).
pub struct Subscriber<A> {
    id: u64,
    shared: Arc<SubShared<A>>,
}

impl<A> Subscriber<A> {
    /// The hub-unique subscriber id (pass to
    /// [`DeltaHub::unsubscribe`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The subscribed key range `lo..hi`.
    pub fn range(&self) -> (u32, u32) {
        (self.shared.lo, self.shared.hi)
    }

    /// Blocks up to `timeout` for the next message (a zero timeout polls
    /// without sleeping). Queued deltas drain in epoch order first; a
    /// pending lag marker is delivered only once the queue is empty; a
    /// closed subscription reports [`SubMsg::Closed`] after its remaining
    /// messages.
    pub fn next_msg(&self, timeout: Duration) -> SubMsg<A> {
        let mut q = self.shared.sub_q.lock().expect("mvcc sub_q lock poisoned");
        loop {
            if let Some(delta) = q.queue.pop_front() {
                return SubMsg::Delta(delta);
            }
            if let Some(resume_epoch) = q.lagged.take() {
                return SubMsg::Lagged { resume_epoch };
            }
            if q.closed {
                return SubMsg::Closed;
            }
            if timeout.is_zero() {
                // A poll, not a wait: a zero-timeout condvar wait still
                // sleeps for the kernel's timer slack (~50 us), which an
                // event loop polling every round cannot afford.
                return SubMsg::Idle;
            }
            let (guard, res) = self
                .shared
                .cv
                .wait_timeout(q, timeout)
                .expect("mvcc sub_q lock poisoned");
            q = guard;
            if res.timed_out() {
                return SubMsg::Idle;
            }
        }
    }
}

/// The publish-side fan-out hub and subscriber registry.
pub struct DeltaHub<A> {
    sub_table: Mutex<HashMap<u64, Arc<SubShared<A>>>>,
    next_id: AtomicU64,
    deltas_pushed: AtomicU64,
    lag_events: AtomicU64,
}

impl<A> Default for DeltaHub<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> DeltaHub<A> {
    /// An empty hub.
    pub fn new() -> Self {
        DeltaHub {
            sub_table: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            deltas_pushed: AtomicU64::new(0),
            lag_events: AtomicU64::new(0),
        }
    }

    /// Registers a subscriber for keys `lo..hi` with a bounded queue of
    /// `queue_epochs` per-epoch deltas. Fan-out for epochs published
    /// after this call is guaranteed to reach the subscriber (as a delta
    /// or, on overflow, through the lag marker).
    pub fn subscribe(&self, lo: u32, hi: u32, queue_epochs: usize) -> Subscriber<A> {
        assert!(lo < hi, "subscription range must be non-empty");
        assert!(queue_epochs >= 1, "need at least one queued epoch");
        // ordering: Relaxed — audited: a pure id allocator; the id is
        // published to other threads via the sub_table mutex below.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(SubShared {
            lo,
            hi,
            cap: queue_epochs,
            sub_q: Mutex::new(SubQueue {
                queue: VecDeque::with_capacity(queue_epochs),
                lagged: None,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        self.sub_table
            .lock()
            .expect("mvcc sub_table lock poisoned")
            .insert(id, Arc::clone(&shared));
        Subscriber { id, shared }
    }

    /// Fans one published epoch out to every subscriber. `changed` is
    /// the epoch's full sorted changed-entry list (vs. the previous
    /// epoch); each subscriber receives the slice inside its range.
    pub fn fan_out(&self, epoch: u64, changed: Vec<(u32, A)>) {
        debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
        let all = Arc::new(changed);
        let table = self.sub_table.lock().expect("mvcc sub_table lock poisoned");
        for shared in table.values() {
            let start = all.partition_point(|&(k, _)| k < shared.lo);
            let end = all.partition_point(|&(k, _)| k < shared.hi);
            let mut q = shared.sub_q.lock().expect("mvcc sub_q lock poisoned");
            if q.closed {
                continue;
            }
            if q.lagged.is_some() || q.queue.len() >= shared.cap {
                // Never silently dropped: the marker always names the
                // newest missed epoch, and it only advances — the
                // consumer taking it under this same lock is what lets
                // enqueueing resume without a gap.
                if q.lagged.is_none() {
                    // ordering: Relaxed — audited: telemetry counter.
                    self.lag_events.fetch_add(1, Ordering::Relaxed);
                }
                q.lagged = Some(epoch);
            } else {
                q.queue.push_back(SubDelta {
                    epoch,
                    all: Arc::clone(&all),
                    start,
                    end,
                });
                // ordering: Relaxed — audited: telemetry counter.
                self.deltas_pushed.fetch_add(1, Ordering::Relaxed);
            }
            shared.cv.notify_all();
        }
    }

    /// Removes a subscriber and wakes its consumer with
    /// [`SubMsg::Closed`] (after any still-queued messages). Idempotent.
    pub fn unsubscribe(&self, id: u64) {
        let shared = self
            .sub_table
            .lock()
            .expect("mvcc sub_table lock poisoned")
            .remove(&id);
        if let Some(shared) = shared {
            let mut q = shared.sub_q.lock().expect("mvcc sub_q lock poisoned");
            q.closed = true;
            shared.cv.notify_all();
        }
    }

    /// Closes every subscription (server shutdown).
    pub fn close_all(&self) {
        let mut table = self.sub_table.lock().expect("mvcc sub_table lock poisoned");
        for shared in table.values() {
            let mut q = shared.sub_q.lock().expect("mvcc sub_q lock poisoned");
            q.closed = true;
            shared.cv.notify_all();
        }
        table.clear();
    }

    /// Currently registered subscribers.
    pub fn active_subscribers(&self) -> u64 {
        self.sub_table
            .lock()
            .expect("mvcc sub_table lock poisoned")
            .len() as u64
    }

    /// Per-epoch deltas enqueued to subscribers since startup.
    pub fn deltas_pushed(&self) -> u64 {
        // ordering: Relaxed — audited: telemetry counter.
        self.deltas_pushed.load(Ordering::Relaxed)
    }

    /// Queue overflows that turned into lag markers since startup.
    pub fn lag_events(&self) -> u64 {
        // ordering: Relaxed — audited: telemetry counter.
        self.lag_events.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(50);

    #[test]
    fn deltas_arrive_in_epoch_order_clipped_to_range() {
        let hub: DeltaHub<u64> = DeltaHub::new();
        let sub = hub.subscribe(4, 8, 8);
        hub.fan_out(1, vec![(2, 9), (5, 50), (7, 70), (9, 90)]);
        hub.fan_out(2, vec![(3, 33)]);
        match sub.next_msg(T) {
            SubMsg::Delta(d) => {
                assert_eq!(d.epoch(), 1);
                assert_eq!(d.entries(), &[(5, 50), (7, 70)]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        match sub.next_msg(T) {
            SubMsg::Delta(d) => {
                assert_eq!(d.epoch(), 2);
                assert_eq!(d.entries(), &[], "empty deltas still announce epochs");
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert!(matches!(sub.next_msg(Duration::ZERO), SubMsg::Idle));
    }

    #[test]
    fn overflow_turns_into_lag_then_resumes_without_gap() {
        let hub: DeltaHub<u64> = DeltaHub::new();
        let sub = hub.subscribe(0, 16, 2);
        for e in 1..=5 {
            hub.fan_out(e, vec![(0, e)]);
        }
        // Queue held epochs 1..=2; 3..=5 were missed and the marker
        // advanced to 5.
        for want in 1..=2u64 {
            match sub.next_msg(T) {
                SubMsg::Delta(d) => assert_eq!(d.epoch(), want),
                other => panic!("expected delta {want}, got {other:?}"),
            }
        }
        match sub.next_msg(T) {
            SubMsg::Lagged { resume_epoch } => assert_eq!(resume_epoch, 5),
            other => panic!("expected lag, got {other:?}"),
        }
        assert_eq!(hub.lag_events(), 1);
        // Post-resync publishes enqueue normally again, starting exactly
        // at resume + 1.
        hub.fan_out(6, vec![(1, 6)]);
        match sub.next_msg(T) {
            SubMsg::Delta(d) => assert_eq!(d.epoch(), 6),
            other => panic!("expected delta 6, got {other:?}"),
        }
    }

    #[test]
    fn unsubscribe_drains_then_closes() {
        let hub: DeltaHub<u64> = DeltaHub::new();
        let sub = hub.subscribe(0, 4, 4);
        hub.fan_out(1, vec![(0, 1)]);
        hub.unsubscribe(sub.id());
        assert_eq!(hub.active_subscribers(), 0);
        assert!(matches!(sub.next_msg(T), SubMsg::Delta(_)));
        assert!(matches!(sub.next_msg(T), SubMsg::Closed));
        // Idempotent.
        hub.unsubscribe(sub.id());
    }

    #[test]
    fn close_all_wakes_blocked_consumers() {
        let hub: Arc<DeltaHub<u64>> = Arc::new(DeltaHub::new());
        let sub = hub.subscribe(0, 4, 4);
        let waker = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.close_all();
            })
        };
        loop {
            match sub.next_msg(Duration::from_secs(5)) {
                SubMsg::Closed => break,
                SubMsg::Idle => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        waker.join().expect("waker thread");
    }

    #[test]
    fn fan_out_after_unsubscribe_skips_the_closed_queue() {
        let hub: DeltaHub<u64> = DeltaHub::new();
        let sub = hub.subscribe(0, 4, 4);
        hub.unsubscribe(sub.id());
        hub.fan_out(1, vec![(0, 1)]);
        assert_eq!(hub.deltas_pushed(), 0);
        assert!(matches!(sub.next_msg(T), SubMsg::Closed));
    }
}
