//! Bounded FIFO channels with backpressure and first-class stall
//! accounting — the software analogue of COBRA's *eviction buffers*
//! (paper, Section V-D).
//!
//! In the hardware design, a fixed-capacity FIFO sits between a producer
//! (the core evicting C-Buffer lines) and a consumer (the binning engine);
//! when the FIFO is full the producer stalls, and the fraction of time
//! spent stalled is the quantity the paper sweeps in Figure 13a. This
//! module reproduces that shape in software: a fixed-capacity queue whose
//! producers block when it is full, with the block count, the blocked
//! wall-clock time, and the queue occupancy all recorded in a
//! [`ChannelCounters`] block — mirroring `cobra-core::evict`'s DES stall
//! counters so native runs and simulated runs report the same metrics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Error returned by [`Sender::send`] when the receiver is gone. Carries
/// the rejected message back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected<T>(pub T);

/// Error returned by [`Sender::try_send`]. Carries the rejected message
/// back to the caller in both cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue was at capacity; sending would have blocked.
    Full(T),
    /// The receiver is gone; sending can never succeed.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// The rejected message.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }
}

/// Live (atomic) counters of one channel. Shared by the producer and
/// consumer sides; snapshot with [`ChannelCounters::snapshot`].
#[derive(Debug, Default)]
pub struct ChannelCounters {
    sends: AtomicU64,
    recvs: AtomicU64,
    send_blocks: AtomicU64,
    send_stall_nanos: AtomicU64,
    occupancy_hwm: AtomicU64,
    occupancy_sum: AtomicU64,
    try_send_fulls: AtomicU64,
}

impl ChannelCounters {
    /// A consistent-enough copy of the counters (each counter is read
    /// atomically; the set is not snapshotted under a lock).
    pub fn snapshot(&self) -> ChannelStats {
        // ordering: Relaxed throughout — monotonic statistics counters; no
        // payload is published through them (message data always crosses
        // threads under the channel's state mutex), so no acquire/release
        // pairing is needed and per-counter atomicity suffices.
        ChannelStats {
            sends: self.sends.load(Ordering::Relaxed), // ordering: stats
            recvs: self.recvs.load(Ordering::Relaxed), // ordering: stats
            send_blocks: self.send_blocks.load(Ordering::Relaxed), // ordering: stats
            send_stall_nanos: self.send_stall_nanos.load(Ordering::Relaxed), // ordering: stats
            occupancy_hwm: self.occupancy_hwm.load(Ordering::Relaxed), // ordering: stats
            occupancy_sum: self.occupancy_sum.load(Ordering::Relaxed), // ordering: stats
            try_send_fulls: self.try_send_fulls.load(Ordering::Relaxed), // ordering: stats
        }
    }
}

/// Point-in-time counter values of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages enqueued.
    pub sends: u64,
    /// Messages dequeued.
    pub recvs: u64,
    /// Sends that found the queue full and had to wait (backpressure
    /// events — the producer-stall analogue of a full eviction buffer).
    pub send_blocks: u64,
    /// Total wall-clock nanoseconds producers spent blocked in
    /// [`Sender::send`].
    pub send_stall_nanos: u64,
    /// Highest queue occupancy observed just after any send (the enqueued
    /// message included).
    pub occupancy_hwm: u64,
    /// Sum of the queue occupancy sampled just after every send (divide by
    /// [`sends`](Self::sends) for the mean occupancy seen by producers).
    pub occupancy_sum: u64,
    /// [`Sender::try_send`] attempts rejected because the queue was full
    /// (admission-control refusals — the non-blocking counterpart of
    /// [`send_blocks`](Self::send_blocks)).
    pub try_send_fulls: u64,
}

impl ChannelStats {
    /// Mean queue occupancy observed by producers at send time.
    pub fn mean_occupancy(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.sends as f64
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    counters: Arc<ChannelCounters>,
}

impl<T> Shared<T> {
    /// The tail both send flavours share: pushes under the state lock the
    /// caller holds (room and a live receiver already checked), samples
    /// the occupancy, releases the lock and wakes the consumer.
    fn enqueue(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
        st.queue.push_back(value);
        let occ = st.queue.len() as u64;
        let c = &self.counters;
        // ordering: Relaxed (×3) — stats counters sampled under the state
        // mutex; monotonic, no cross-thread payload publication.
        c.occupancy_sum.fetch_add(occ, Ordering::Relaxed);
        c.occupancy_hwm.fetch_max(occ, Ordering::Relaxed); // ordering: stats
        c.sends.fetch_add(1, Ordering::Relaxed); // ordering: stats
        drop(st);
        self.not_empty.notify_one();
    }
}

/// Producing end of a bounded channel. Cloneable; the channel closes for
/// the receiver once every sender is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming end of a bounded channel (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded FIFO channel holding at most `capacity` messages.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
        counters: Arc::new(ChannelCounters::default()),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message, blocking while the channel is full
    /// (backpressure). Returns the message if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), Disconnected<T>> {
        let sh = &*self.shared;
        let mut st = sh.state.lock().expect("channel poisoned");
        if st.queue.len() >= sh.capacity && st.receiver_alive {
            // ordering: Relaxed — stats counter; the queue itself is
            // mutex-protected, nothing is published through this atomic.
            sh.counters.send_blocks.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            while st.queue.len() >= sh.capacity && st.receiver_alive {
                st = sh.not_full.wait(st).expect("channel poisoned");
            }
            sh.counters
                .send_stall_nanos
                // ordering: Relaxed — stats counter, as above.
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if !st.receiver_alive {
            return Err(Disconnected(value));
        }
        sh.enqueue(st, value);
        Ok(())
    }

    /// Enqueues a message only if the channel has room right now; never
    /// blocks. A [`TrySendError::Full`] rejection is counted in
    /// [`ChannelStats::try_send_fulls`] so admission-control refusals are
    /// as observable as blocking-send stalls.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let sh = &*self.shared;
        let st = sh.state.lock().expect("channel poisoned");
        if !st.receiver_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() >= sh.capacity {
            drop(st);
            // ordering: Relaxed — stats counter; the rejection itself is
            // decided under the state mutex, nothing is published here.
            sh.counters.try_send_fulls.fetch_add(1, Ordering::Relaxed);
            return Err(TrySendError::Full(value));
        }
        sh.enqueue(st, value);
        Ok(())
    }

    /// The channel's shared counter block.
    pub fn counters(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.shared.counters)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty.
    /// Returns `None` once every sender is dropped and the queue drained.
    pub fn recv(&self) -> Option<T> {
        let sh = &*self.shared;
        let mut st = sh.state.lock().expect("channel poisoned");
        loop {
            if let Some(v) = st.queue.pop_front() {
                // ordering: Relaxed — stats counter; `v` itself was handed
                // over by the state mutex, not by this atomic.
                sh.counters.recvs.fetch_add(1, Ordering::Relaxed);
                drop(st);
                sh.not_full.notify_one();
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            st = sh.not_empty.wait(st).expect("channel poisoned");
        }
    }

    /// The channel's shared counter block.
    pub fn counters(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.shared.counters)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        st.receiver_alive = false;
        drop(st);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = bounded(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_when_receiver_gone() {
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert_eq!(tx.send(5), Err(Disconnected(5)));
    }

    #[test]
    fn full_channel_blocks_and_counts_stall() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        let producer = thread::spawn(move || {
            for i in 1..100u64 {
                tx.send(i).unwrap();
            }
            tx.counters().snapshot()
        });
        // Slow consumer: guarantee the producer hits a full queue.
        let mut got = Vec::new();
        while let Some(v) = {
            thread::sleep(Duration::from_micros(50));
            rx.recv()
        } {
            got.push(v);
        }
        let stats = producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(stats.send_blocks > 0, "expected backpressure: {stats:?}");
        assert!(stats.send_stall_nanos > 0);
        assert_eq!(stats.occupancy_hwm, 1);
    }

    #[test]
    fn try_send_rejects_on_full_and_counts_it() {
        let (tx, rx) = bounded(2);
        tx.try_send(1u32).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx.try_send(4), Err(TrySendError::Full(4)));
        let stats = tx.counters().snapshot();
        assert_eq!(stats.try_send_fulls, 2);
        assert_eq!(stats.sends, 2);
        // Draining one slot makes the next try_send succeed.
        assert_eq!(rx.recv(), Some(1));
        tx.try_send(5).unwrap();
        drop(tx);
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![2, 5]);
    }

    #[test]
    fn try_send_reports_disconnected_receiver() {
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
        assert_eq!(TrySendError::Full(7u32).into_inner(), 7);
    }

    #[test]
    fn multi_producer_delivers_everything() {
        let (tx, rx) = bounded(8);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let consumer = thread::spawn(move || {
            let mut got: Vec<u64> = std::iter::from_fn(|| rx.recv()).collect();
            got.sort_unstable();
            got
        });
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        let a = thread::spawn(move || {
            for i in 0..500u64 {
                tx.send((0, i)).unwrap();
            }
        });
        let b = thread::spawn(move || {
            for i in 0..500u64 {
                tx2.send((1, i)).unwrap();
            }
        });
        let mut last = [None::<u64>, None];
        while let Some((p, i)) = rx.recv() {
            if let Some(prev) = last[p as usize] {
                assert!(i > prev, "producer {p} reordered: {prev} then {i}");
            }
            last[p as usize] = Some(i);
        }
        a.join().unwrap();
        b.join().unwrap();
    }
}
