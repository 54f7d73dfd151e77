//! Bounded exhaustive exploration of the MVCC subscription fan-out
//! protocol (`cobra-mvcc`'s `DeltaHub` bounded queues + lossless lag).
//!
//! The model is the hub as `hub.rs` actually implements it: the publish
//! path fans each epoch's delta out to every registered subscriber —
//! queue has room → enqueue; queue full (or already lagged) → advance
//! the subscriber's *lag marker* to the newest missed epoch, never
//! dropping silently. Each consumer drains its queue in order first,
//! then takes a pending lag marker (a `LAGGED { resume_epoch }` it
//! answers with a diff re-sync), then observes `Closed`. Fan-out to one
//! subscriber and that subscriber's consumption interleave freely (they
//! share one mutex in the real code, so each step is atomic);
//! [`crate::explore::explore`] exhausts every such interleaving of this
//! [`Model`], including mid-fan-out consumption and mid-stream
//! unsubscribes.
//!
//! Invariants, asserted at every consumer step / terminal state:
//!
//! * **gap-free per-epoch order** — every delivered delta's epoch is
//!   exactly `last_applied + 1`;
//! * a lag marker only ever names an epoch *ahead* of the consumer, and
//!   the diff re-sync lands it exactly on `resume_epoch`;
//! * queue occupancy never exceeds the subscriber's capacity;
//! * **eventual completeness** — a subscriber that stays registered
//!   through shutdown drains to `last_applied == rounds`, lag or no lag.
//!
//! The self-test seeds the classic pub/sub bug — dropping the delta on
//! a full queue instead of setting the marker — and the explorer must
//! find a schedule where the consumer observes an epoch gap or ends
//! short of the final epoch.

use crate::explore::Model;

/// One subscriber's shape in a scenario.
#[derive(Debug, Clone, Copy)]
pub struct SubSpec {
    /// Bounded queue capacity, in per-epoch deltas.
    pub cap: usize,
    /// If set, the consumer unsubscribes after observing this many
    /// messages (deltas or lag markers) — the mid-stream disconnect.
    pub unsub_after: Option<u8>,
}

/// One bounded subscription scenario to exhaust.
#[derive(Debug, Clone)]
pub struct SubScenario {
    /// Display name.
    pub name: &'static str,
    /// Epochs the publisher fans out (1-based, in order).
    pub rounds: u8,
    /// The subscribers (all registered before the first publish).
    pub subs: Vec<SubSpec>,
    /// Mutation for the self-test: a full queue silently drops the
    /// epoch's delta instead of setting the lag marker.
    pub buggy_drop_on_full: bool,
}

/// One subscriber's explicit state (hub side + consumer side).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SubSt {
    /// Queued per-epoch deltas, oldest first (epochs only: entry
    /// contents are irrelevant to delivery-order invariants).
    queue: Vec<u8>,
    /// Newest missed epoch while lagged.
    lagged: Option<u8>,
    /// `closed` flag (set by unsubscribe or shutdown's close-all).
    closed: bool,
    /// Still in the hub's table (fan-out reaches it).
    registered: bool,
    /// The consumer's reconstructed epoch.
    last_applied: u8,
    /// Messages the consumer has observed (drives `unsub_after`).
    observed: u8,
    /// Consumer finished (saw `Closed`).
    done: bool,
}

/// Publisher phases: fan epoch `epoch` to subscriber `sub` next, then
/// close every subscription (server shutdown), then done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PubPhase {
    FanOut { epoch: u8, sub: u8 },
    CloseAll,
    Done,
}

/// One explicit protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SSt {
    subs: Vec<SubSt>,
    publisher: PubPhase,
}

impl SubScenario {
    /// One publisher step: fan the current epoch to one subscriber
    /// (mirrors `DeltaHub::fan_out`'s per-subscriber critical section),
    /// or run the shutdown close-all.
    fn step_publisher(&self, st: &SSt) -> Result<Option<SSt>, String> {
        match st.publisher {
            PubPhase::Done => Ok(None),
            PubPhase::CloseAll => {
                let mut next = st.clone();
                for sub in &mut next.subs {
                    if sub.registered {
                        sub.registered = false;
                        sub.closed = true;
                    }
                }
                next.publisher = PubPhase::Done;
                Ok(Some(next))
            }
            PubPhase::FanOut { epoch, sub } => {
                let mut next = st.clone();
                let i = sub as usize;
                let spec = self.subs[i];
                let s = &mut next.subs[i];
                if s.registered && !s.closed {
                    if s.lagged.is_some() || s.queue.len() >= spec.cap {
                        if self.buggy_drop_on_full {
                            // The seeded bug: the epoch vanishes.
                        } else {
                            if let Some(old) = s.lagged {
                                if epoch <= old {
                                    return Err(format!(
                                        "lag marker moved backwards: {old} then {epoch}"
                                    ));
                                }
                            }
                            s.lagged = Some(epoch);
                        }
                    } else {
                        s.queue.push(epoch);
                        if s.queue.len() > spec.cap {
                            return Err(format!(
                                "subscriber {i} queue exceeded capacity {}",
                                spec.cap
                            ));
                        }
                    }
                }
                next.publisher = if sub as usize + 1 < self.subs.len() {
                    PubPhase::FanOut {
                        epoch,
                        sub: sub + 1,
                    }
                } else if epoch < self.rounds {
                    PubPhase::FanOut {
                        epoch: epoch + 1,
                        sub: 0,
                    }
                } else {
                    PubPhase::CloseAll
                };
                Ok(Some(next))
            }
        }
    }

    /// One consumer step: the `next_msg` drain order — queued deltas
    /// first, then a pending lag marker (answered with a diff re-sync),
    /// then `Closed`. Returns `None` when the consumer would block.
    fn step_consumer(&self, st: &SSt, i: usize) -> Result<Option<SSt>, String> {
        let sub = &st.subs[i];
        if sub.done {
            return Ok(None);
        }
        let mut next = st.clone();
        let s = &mut next.subs[i];
        if !s.queue.is_empty() {
            let epoch = s.queue.remove(0);
            if epoch != s.last_applied + 1 {
                return Err(format!(
                    "subscriber {i} delivery gap: delta for epoch {epoch} after \
                     epoch {} — per-epoch order broken",
                    s.last_applied
                ));
            }
            s.last_applied = epoch;
            s.observed += 1;
        } else if let Some(resume) = s.lagged.take() {
            if resume <= s.last_applied {
                return Err(format!(
                    "subscriber {i} lag marker names epoch {resume} at or behind \
                     its applied epoch {}",
                    s.last_applied
                ));
            }
            // The diff re-sync: absolute values land the consumer
            // exactly on the resume epoch.
            s.last_applied = resume;
            s.observed += 1;
        } else if s.closed {
            s.done = true;
            return Ok(Some(next));
        } else {
            return Ok(None); // would block on the condvar
        }
        if let Some(n) = self.subs[i].unsub_after {
            if s.observed == n && s.registered {
                // `DeltaHub::unsubscribe`: out of the table, closed flag
                // set; queued messages still drain before `Closed`.
                s.registered = false;
                s.closed = true;
            }
        }
        Ok(Some(next))
    }

    fn check_terminal(&self, st: &SSt) -> Result<(), String> {
        for (i, (sub, spec)) in st.subs.iter().zip(&self.subs).enumerate() {
            if spec.unsub_after.is_none() && sub.last_applied != self.rounds {
                return Err(format!(
                    "subscriber {i} finished at epoch {} of {} — an epoch \
                     escaped both the queue and the lag marker",
                    sub.last_applied, self.rounds
                ));
            }
            if sub.last_applied > self.rounds {
                return Err(format!(
                    "subscriber {i} applied epoch {} beyond the {} published",
                    sub.last_applied, self.rounds
                ));
            }
        }
        Ok(())
    }
}

impl Model for SubScenario {
    type State = SSt;

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&self) -> SSt {
        SSt {
            subs: self
                .subs
                .iter()
                .map(|_| SubSt {
                    queue: Vec::new(),
                    lagged: None,
                    closed: false,
                    registered: true,
                    last_applied: 0,
                    observed: 0,
                    done: false,
                })
                .collect(),
            publisher: if self.rounds == 0 {
                PubPhase::CloseAll
            } else {
                PubPhase::FanOut { epoch: 1, sub: 0 }
            },
        }
    }

    fn successors(&self, st: &SSt) -> Result<Vec<SSt>, String> {
        let mut out = Vec::from_iter(self.step_publisher(st)?);
        for i in 0..self.subs.len() {
            out.extend(self.step_consumer(st, i)?);
        }
        Ok(out)
    }

    fn check_end(&self, st: &SSt) -> Result<(), String> {
        let stuck: Vec<usize> = (0..st.subs.len()).filter(|&i| !st.subs[i].done).collect();
        if st.publisher != PubPhase::Done || !stuck.is_empty() {
            return Err(format!(
                "deadlock: consumers {stuck:?} blocked with the publisher at \
                 {:?} — a wakeup or close was lost",
                st.publisher
            ));
        }
        self.check_terminal(st)
    }
}

/// The standard subscription scenario suite: a queue deep enough to
/// never lag, a capacity-1 queue forced through the lag + re-sync path,
/// a fast and a slow subscriber side by side, and a mid-stream
/// unsubscribe racing the fan-out.
pub fn standard_sub_scenarios() -> Vec<SubScenario> {
    vec![
        SubScenario {
            name: "one_sub_deep_queue",
            rounds: 3,
            subs: vec![SubSpec {
                cap: 3,
                unsub_after: None,
            }],
            buggy_drop_on_full: false,
        },
        SubScenario {
            name: "lag_and_resync",
            rounds: 4,
            subs: vec![SubSpec {
                cap: 1,
                unsub_after: None,
            }],
            buggy_drop_on_full: false,
        },
        SubScenario {
            name: "fast_and_slow_subscribers",
            rounds: 3,
            subs: vec![
                SubSpec {
                    cap: 3,
                    unsub_after: None,
                },
                SubSpec {
                    cap: 1,
                    unsub_after: None,
                },
            ],
            buggy_drop_on_full: false,
        },
        SubScenario {
            name: "mid_stream_unsubscribe",
            rounds: 3,
            subs: vec![
                SubSpec {
                    cap: 2,
                    unsub_after: Some(2),
                },
                SubSpec {
                    cap: 3,
                    unsub_after: None,
                },
            ],
            buggy_drop_on_full: false,
        },
    ]
}

/// The seeded drop-on-full mutation the self-test must catch.
pub fn drop_on_full_mutation() -> SubScenario {
    SubScenario {
        name: "drop_on_full_mutation",
        rounds: 3,
        subs: vec![SubSpec {
            cap: 1,
            unsub_after: None,
        }],
        buggy_drop_on_full: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn standard_sub_scenarios_exhaust_cleanly() {
        // (states, terminals) as this module's own driver reported them.
        let want = [(15, 1), (39, 3), (114, 2), (135, 2)];
        for (sc, want) in standard_sub_scenarios().iter().zip(want) {
            let stats = explore(sc).unwrap_or_else(|v| panic!("{v}"));
            assert_eq!((stats.states, stats.terminals), want, "{}", sc.name);
        }
    }

    #[test]
    fn drop_on_full_loses_an_epoch_and_is_caught() {
        // With the marker elided, some schedule either delivers an epoch
        // out of sequence or strands the consumer short of the final
        // epoch; the explorer must find it.
        let err = explore(&drop_on_full_mutation())
            .expect_err("silent drop must break gap-free delivery");
        assert!(
            err.message.contains("delivery gap") || err.message.contains("escaped"),
            "got: {err}"
        );
    }

    #[test]
    fn stale_lag_marker_would_be_caught() {
        // Sanity-check the checker itself: a marker at or behind the
        // consumer's applied epoch must violate when taken.
        let sc = SubScenario {
            name: "self_check",
            rounds: 1,
            subs: vec![SubSpec {
                cap: 1,
                unsub_after: None,
            }],
            buggy_drop_on_full: false,
        };
        let mut st = sc.initial();
        st.subs[0].last_applied = 2;
        st.subs[0].lagged = Some(1);
        let err = sc
            .step_consumer(&st, 0)
            .expect_err("stale lag marker must violate");
        assert!(err.contains("at or behind"), "got: {err}");
    }
}
