//! Open-loop schedule: operation `i` is *due* at `origin + i × period`
//! whether or not the system kept up, and its latency is counted from
//! that due instant — so a stall charges every operation it delays, not
//! only the one that hit it.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    origin: Instant,
    period: Duration,
}

impl Schedule {
    pub fn new(origin: Instant, period: Duration) -> Schedule {
        Schedule { origin, period }
    }

    pub fn due(&self, tick: u64) -> Instant {
        self.origin + self.period.mul_f64(tick as f64)
    }

    /// Latency of the operation scheduled at `tick` that completed at
    /// `done`: measured from when it was due, not from when it was sent.
    pub fn latency(&self, tick: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(tick))
    }

    /// How late the generator is for `tick` at `now` (zero when early).
    pub fn lateness(&self, tick: u64, now: Instant) -> Duration {
        now.saturating_duration_since(self.due(tick))
    }

    /// Whether `tick` is due at `now`.
    pub fn is_due(&self, tick: u64, now: Instant) -> bool {
        now >= self.due(tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_instant_not_the_send() {
        let origin = Instant::now();
        let s = Schedule::new(origin, Duration::from_millis(4));
        assert_eq!(s.due(0), origin);
        assert_eq!(s.due(25), origin + Duration::from_millis(100));
        // Tick 3 was due at 12 ms; the generator was stalled and only
        // sent it at 30 ms; the reply came at 31 ms. The operation waited
        // 19 ms, not 1 ms.
        let sent = origin + Duration::from_millis(30);
        let done = origin + Duration::from_millis(31);
        assert_eq!(s.latency(3, done), Duration::from_millis(19));
        assert_eq!(s.lateness(3, sent), Duration::from_millis(18));
        assert!(s.is_due(3, sent));
        // Early completion and early generator clamp to zero.
        assert_eq!(s.latency(10, done), Duration::ZERO);
        assert_eq!(s.lateness(10, sent), Duration::ZERO);
        assert!(!s.is_due(10, sent));
    }
}
