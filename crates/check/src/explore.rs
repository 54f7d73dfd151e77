//! Bounded exhaustive schedule exploration (mini-loom, no deps).
//!
//! One driver, many models. A protocol is written down as a [`Model`]: an
//! explicit hashable state, the initial state, and every successor state
//! one scheduling step can reach. [`explore`] walks that graph by DFS with
//! a visited set, so **every** interleaving of a small configuration is
//! covered exactly once; a state with no successor must pass the model's
//! [`Model::check_end`] (all threads done and the terminal invariants
//! hold — anything else is a deadlock). [`crate::cluster`] and
//! [`crate::subs`] are two more models over the same driver.
//!
//! This module also holds the first model, the `cobra-stream`
//! channel/seal/epoch protocol: the bounded FIFO of `channel.rs` (mutex +
//! two condvars with explicit wait sets), the seal broadcast of
//! `pipeline.rs` (epoch counter under the seal lock, marker sent through
//! the same FIFO as data), the shard worker loop of `shard.rs` — which
//! owns its key range's state, applies each sealed epoch into it and ships
//! the *cumulative* state — and the accumulator of `epoch.rs`, which only
//! aligns and sums, over small scenarios (2–3 producers, capacity 1–2
//! queues).
//!
//! Condvars are modelled with real wait sets: a blocked thread is only
//! runnable again after a matching `notify`, and `notify_one` branches
//! over each possible wakee. Lost-wakeup bugs therefore show up as
//! deadlocks (a non-empty wait set with no runnable thread), which the
//! self-test provokes deliberately with a `notify_one`-on-drop mutation.
//!
//! Invariants asserted at every state / terminal state:
//! * queue occupancy never exceeds capacity;
//! * per-producer batch order is preserved end-to-end (FIFO);
//! * **epoch-snapshot-equals-batch**: when the worker processes `Seal(e)`
//!   it has binned exactly the tuples enqueued before the `e`-th marker,
//!   and the state the accumulator publishes as epoch `e` equals that
//!   count — also in schedules where the worker has applied `e + 1` into
//!   its own state before the accumulator looks at `e`;
//! * epochs are applied in aligned order `1, 2, 3, …`;
//! * no deadlock, and every thread terminates.

use std::collections::HashSet;
use std::hash::Hash;

/// An executable protocol model the explorer can exhaust.
pub trait Model {
    /// One explicit protocol state.
    type State: Clone + Eq + Hash;

    /// Display name of the scenario.
    fn name(&self) -> &'static str;

    /// The state every schedule starts from.
    fn initial(&self) -> Self::State;

    /// Every state one scheduling step can reach from `st` (each enabled
    /// thread, and each nondeterministic outcome of its step). `Err` is
    /// an invariant violated by taking the step.
    fn successors(&self, st: &Self::State) -> Result<Vec<Self::State>, String>;

    /// Judges a state with no successor: `Ok` when it is a proper
    /// terminal (every thread finished, terminal invariants hold), `Err`
    /// for a deadlock or a broken terminal invariant.
    fn check_end(&self, st: &Self::State) -> Result<(), String>;
}

/// An invariant violation or deadlock, with a human-readable description.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario that produced it.
    pub scenario: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.scenario, self.message)
    }
}

/// Exploration statistics for one scenario.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Terminal (no-successor, all-threads-done) states reached.
    pub terminals: usize,
}

/// Explores one scenario exhaustively: DFS over explicit states with
/// memoization, stopping at the first violated invariant.
pub fn explore<M: Model>(model: &M) -> Result<Stats, Violation> {
    let violation = |message| Violation {
        scenario: model.name(),
        message,
    };
    let mut visited: HashSet<M::State> = HashSet::new();
    let mut stack = vec![model.initial()];
    let mut terminals = 0usize;
    while let Some(st) = stack.pop() {
        if !visited.insert(st.clone()) {
            continue;
        }
        let successors = model.successors(&st).map_err(violation)?;
        if successors.is_empty() {
            model.check_end(&st).map_err(violation)?;
            terminals += 1;
        }
        stack.extend(successors.into_iter().filter(|n| !visited.contains(n)));
    }
    Ok(Stats {
        states: visited.len(),
        terminals,
    })
}

/// A producer-script operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum POp {
    /// Send a batch of `n` tuples (blocking).
    Send(u8),
    /// Seal an epoch: take the seal lock, broadcast the marker, release.
    Seal,
}

/// One bounded scenario to exhaust.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Data-FIFO capacity (producers/main → worker).
    pub cap_data: usize,
    /// Accumulator-FIFO capacity (worker → accumulator).
    pub cap_acc: usize,
    /// Producer scripts.
    pub producers: Vec<Vec<POp>>,
    /// If set, the worker exits (dropping both channel ends) after
    /// consuming this many messages — the receiver-drop-mid-epoch case.
    pub worker_exit_after: Option<u8>,
    /// Mutation for the self-test: receiver drop wakes only one blocked
    /// sender (`notify_one` instead of `notify_all`) — a lost-wakeup bug
    /// the explorer must expose as a deadlock.
    pub buggy_drop_notify_one: bool,
    /// Assert conservation (every enqueued tuple applied) at exit; off for
    /// crash scenarios where losing queued tuples is expected.
    pub strict_totals: bool,
}

/// A message in the data FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Msg {
    Batch { from: u8, seq: u8, n: u8 },
    Seal(u8),
    Shutdown,
}

/// A message in the accumulator FIFO: the worker's cumulative state as
/// of the seal, by value (a clone of its segment handles — later applies
/// write only into an unshared segment: a copy or a recycled spare, so
/// the message never changes under the accumulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AMsg {
    Sealed { epoch: u8, cum: u8 },
    Done { cum: u8 },
}

/// A bounded FIFO with condvar wait sets, mirroring `channel.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Chan<M> {
    q: Vec<M>,
    cap: usize,
    senders: u8,
    receiver_alive: bool,
    /// Threads parked in `send` (cond `not_full`), sorted.
    wait_full: Vec<u8>,
    /// Threads parked in `recv` (cond `not_empty`), sorted.
    wait_empty: Vec<u8>,
}

impl<M: Clone> Chan<M> {
    fn new(cap: usize, senders: u8) -> Self {
        Chan {
            q: Vec::new(),
            cap,
            senders,
            receiver_alive: true,
            wait_full: Vec::new(),
            wait_empty: Vec::new(),
        }
    }
}

fn park(set: &mut Vec<u8>, tid: u8) {
    if let Err(pos) = set.binary_search(&tid) {
        set.insert(pos, tid);
    }
}

/// Worker phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WPhase {
    Loop,
    SendSealed { epoch: u8, cum: u8 },
    SendDone { cum: u8 },
    Exited,
}

/// Producer run state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Prod {
    pc: u8,
    seq: u8,
    /// Epoch marker in flight while holding the seal lock.
    sealing: Option<u8>,
    done: bool,
}

/// Main-thread phases: join producers, broadcast shutdown, drop sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MPhase {
    Join,
    SendShutdown,
    Done,
}

/// One explicit protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct St {
    data: Chan<Msg>,
    acc: Chan<AMsg>,
    prods: Vec<Prod>,
    main: MPhase,
    worker: WPhase,
    /// Messages the worker has consumed (for `worker_exit_after`).
    worker_consumed: u8,
    /// Tuples binned by the worker, cumulative.
    cum_binned: u8,
    /// Tuples the worker has applied into its own state, cumulative, and
    /// the last epoch it applied (it may run ahead of the accumulator).
    cum_applied: u8,
    worker_epoch: u8,
    /// Highest per-producer sequence number seen by the worker.
    last_seq: Vec<Option<u8>>,
    /// Accumulator: epochs aligned and the total it last published.
    applied_epoch: u8,
    total: u8,
    acc_done: bool,
    /// Seal lock: holder tid and parked waiters.
    lock_holder: Option<u8>,
    lock_waiters: Vec<u8>,
    epochs_sealed: u8,
    /// `(epoch, cumulative tuples enqueued before its marker)`.
    expected: Vec<(u8, u8)>,
    /// Tuples enqueued into the data FIFO so far.
    enqueued: u8,
    /// Tuples bounced with `Disconnected`.
    bounced: u8,
}

impl St {
    /// The worker's Accumulate phase: everything binned so far is applied
    /// into its own state; returns that cumulative state.
    fn apply_binned(&mut self) -> u8 {
        self.cum_applied = self.cum_binned;
        self.cum_applied
    }
}

/// Thread ids: 0 = worker, 1 = accumulator, 2.. = producers, last = main.
const WORKER: u8 = 0;
const ACCUM: u8 = 1;
const PROD0: u8 = 2;

impl Scenario {
    fn thread_count(&self) -> u8 {
        PROD0 + self.producers.len() as u8 + 1
    }

    fn main_tid(&self) -> u8 {
        self.thread_count() - 1
    }

    fn is_parked(&self, st: &St, tid: u8) -> bool {
        st.data.wait_full.contains(&tid)
            || st.data.wait_empty.contains(&tid)
            || st.acc.wait_full.contains(&tid)
            || st.acc.wait_empty.contains(&tid)
            || st.lock_waiters.contains(&tid)
    }

    fn is_done(&self, st: &St, tid: u8) -> bool {
        match tid {
            WORKER => st.worker == WPhase::Exited,
            ACCUM => st.acc_done,
            t if t == self.main_tid() => st.main == MPhase::Done,
            t => st.prods[(t - PROD0) as usize].done,
        }
    }

    fn runnable(&self, st: &St, tid: u8) -> bool {
        if self.is_done(st, tid) || self.is_parked(st, tid) {
            return false;
        }
        if tid == self.main_tid() && st.main == MPhase::Join {
            // join() blocks until every producer thread has exited.
            return st.prods.iter().all(|p| p.done);
        }
        true
    }

    /// All successor states from scheduling `tid` for one protocol step.
    /// Nondeterminism (which parked thread a `notify_one` wakes) yields
    /// multiple successors.
    fn step(&self, st: &St, tid: u8) -> Result<Vec<St>, String> {
        match tid {
            WORKER => self.step_worker(st),
            ACCUM => self.step_accum(st),
            t if t == self.main_tid() => self.step_main(st),
            t => self.step_producer(st, (t - PROD0) as usize),
        }
    }

    /// `notify_one`: branch over every possible wakee (unparking it);
    /// an empty wait set is a silent no-op.
    fn notify_one<F: Fn(&mut St) -> &mut Vec<u8>>(&self, st: St, set: F) -> Vec<St> {
        let waiters = set(&mut st.clone()).clone();
        if waiters.is_empty() {
            return vec![st];
        }
        waiters
            .iter()
            .map(|&w| {
                let mut next = st.clone();
                set(&mut next).retain(|&x| x != w);
                next
            })
            .collect()
    }

    fn notify_all<F: Fn(&mut St) -> &mut Vec<u8>>(&self, mut st: St, set: F) -> St {
        set(&mut st).clear();
        st
    }

    fn step_producer(&self, st: &St, p: usize) -> Result<Vec<St>, String> {
        let tid = PROD0 + p as u8;
        let script = &self.producers[p];
        let prod = &st.prods[p];

        // Mid-seal: the marker send is in progress while holding the lock.
        if let Some(epoch) = prod.sealing {
            return Ok(self.send_seal_marker(st, p, tid, epoch));
        }
        let Some(&op) = script.get(prod.pc as usize) else {
            // Script exhausted: drop this producer's sender handle.
            let mut next = st.clone();
            next.prods[p].done = true;
            next.data.senders -= 1;
            if next.data.senders == 0 {
                next = self.notify_all(next, |s| &mut s.data.wait_empty);
            }
            return Ok(vec![next]);
        };
        match op {
            POp::Send(n) => {
                if !st.data.receiver_alive {
                    // send() returns Err(Disconnected(batch)).
                    let mut next = st.clone();
                    next.bounced += n;
                    next.prods[p].pc += 1;
                    next.prods[p].seq += 1;
                    return Ok(vec![next]);
                }
                if st.data.q.len() >= st.data.cap {
                    let mut next = st.clone();
                    park(&mut next.data.wait_full, tid);
                    return Ok(vec![next]);
                }
                let mut next = st.clone();
                let msg = Msg::Batch {
                    from: p as u8,
                    seq: next.prods[p].seq,
                    n,
                };
                next.data.q.push(msg);
                if next.data.q.len() > next.data.cap {
                    return Err(format!("data queue exceeded capacity {}", next.data.cap));
                }
                next.enqueued += n;
                next.prods[p].pc += 1;
                next.prods[p].seq += 1;
                Ok(self.notify_one(next, |s| &mut s.data.wait_empty))
            }
            POp::Seal => {
                // pipeline.rs Core::seal — lock, count, send marker, unlock.
                match st.lock_holder {
                    Some(h) if h != tid => {
                        let mut next = st.clone();
                        park(&mut next.lock_waiters, tid);
                        Ok(vec![next])
                    }
                    Some(_) => unreachable!("non-reentrant seal lock"),
                    None => {
                        let mut next = st.clone();
                        next.lock_holder = Some(tid);
                        let epoch = next.epochs_sealed + 1;
                        next.epochs_sealed = epoch;
                        next.prods[p].sealing = Some(epoch);
                        Ok(self.send_seal_marker(&next, p, tid, epoch))
                    }
                }
            }
        }
    }

    /// The seal's marker send (run while holding the seal lock — blocking
    /// here keeps the lock held, exactly like the real `Core::seal`).
    fn send_seal_marker(&self, st: &St, p: usize, tid: u8, epoch: u8) -> Vec<St> {
        if st.data.receiver_alive && st.data.q.len() >= st.data.cap {
            let mut next = st.clone();
            park(&mut next.data.wait_full, tid);
            return vec![next];
        }
        let mut next = st.clone();
        if next.data.receiver_alive {
            next.data.q.push(Msg::Seal(epoch));
            next.expected.push((epoch, next.enqueued));
        }
        // else: `let _ = tx.send(..)` — marker silently dropped.
        next.prods[p].sealing = None;
        next.prods[p].pc += 1;
        next.lock_holder = None;
        let mut out = Vec::new();
        // Unlock wakes one lock waiter (any of them), then the marker
        // enqueue wakes one not_empty waiter: branch over both choices.
        let after_unlock: Vec<St> = if next.lock_waiters.is_empty() {
            vec![next]
        } else {
            self.notify_one(next, |s| &mut s.lock_waiters)
        };
        for s in after_unlock {
            if s.data.receiver_alive {
                out.extend(self.notify_one(s, |x| &mut x.data.wait_empty));
            } else {
                out.push(s);
            }
        }
        out
    }

    fn step_main(&self, st: &St) -> Result<Vec<St>, String> {
        let tid = self.main_tid();
        match st.main {
            MPhase::Join => {
                // Runnable only once all producers are done (see runnable).
                let mut next = st.clone();
                next.main = MPhase::SendShutdown;
                Ok(vec![next])
            }
            MPhase::SendShutdown => {
                if !st.data.receiver_alive {
                    let mut next = st.clone();
                    next.main = MPhase::Done;
                    next.data.senders -= 1;
                    return Ok(vec![next]);
                }
                if st.data.q.len() >= st.data.cap {
                    let mut next = st.clone();
                    park(&mut next.data.wait_full, tid);
                    return Ok(vec![next]);
                }
                let mut next = st.clone();
                next.data.q.push(Msg::Shutdown);
                next.main = MPhase::Done;
                // Drop main's sender right after the shutdown marker.
                next.data.senders -= 1;
                let mut out = Vec::new();
                if next.data.senders == 0 {
                    out.push(self.notify_all(next, |s| &mut s.data.wait_empty));
                } else {
                    out.extend(self.notify_one(next, |s| &mut s.data.wait_empty));
                }
                Ok(out)
            }
            MPhase::Done => Ok(vec![st.clone()]),
        }
    }

    /// Worker drops both of its channel ends (on exit or crash).
    fn worker_drop_ends(&self, st: St) -> St {
        let mut next = st;
        next.worker = WPhase::Exited;
        // Drop the data Receiver: wake blocked senders.
        next.data.receiver_alive = false;
        if self.buggy_drop_notify_one {
            // The seeded lost-wakeup bug: only one sender wakes.
            if let Some(&w) = next.data.wait_full.first() {
                next.data.wait_full.retain(|&x| x != w);
            }
        } else {
            next = self.notify_all(next, |s| &mut s.data.wait_full);
        }
        // Drop the acc Sender.
        next.acc.senders -= 1;
        if next.acc.senders == 0 {
            next = self.notify_all(next, |s| &mut s.acc.wait_empty);
        }
        next
    }

    fn step_worker(&self, st: &St) -> Result<Vec<St>, String> {
        match st.worker {
            WPhase::Exited => Ok(vec![st.clone()]),
            WPhase::SendSealed { epoch, cum } => {
                self.worker_send_acc(st, AMsg::Sealed { epoch, cum })
            }
            WPhase::SendDone { cum } => self.worker_send_acc(st, AMsg::Done { cum }),
            WPhase::Loop => {
                if let Some(limit) = self.worker_exit_after {
                    if st.worker_consumed >= limit {
                        // Simulated crash: exit without draining or Done.
                        return Ok(vec![self.worker_drop_ends(st.clone())]);
                    }
                }
                if st.data.q.is_empty() {
                    if st.data.senders == 0 {
                        // recv() -> None: final drain then exit.
                        let mut next = st.clone();
                        let cum = next.apply_binned();
                        next.worker = WPhase::SendDone { cum };
                        return Ok(vec![next]);
                    }
                    let mut next = st.clone();
                    park(&mut next.data.wait_empty, WORKER);
                    return Ok(vec![next]);
                }
                let mut next = st.clone();
                let msg = next.data.q.remove(0);
                next.worker_consumed += 1;
                match msg {
                    Msg::Batch { from, seq, n } => {
                        if let Some(prev) = next.last_seq[from as usize] {
                            if seq <= prev {
                                return Err(format!(
                                    "producer {from} batches reordered: seq {seq} after {prev}"
                                ));
                            }
                        }
                        next.last_seq[from as usize] = Some(seq);
                        next.cum_binned += n;
                    }
                    Msg::Seal(epoch) => {
                        let Some(&(_, want)) = next.expected.iter().find(|&&(e, _)| e == epoch)
                        else {
                            return Err(format!("worker saw Seal({epoch}) with no enqueue record"));
                        };
                        if next.cum_binned != want {
                            return Err(format!(
                                "epoch {epoch} snapshot mismatch: binned {} tuples, \
                                 {want} were enqueued before the marker",
                                next.cum_binned
                            ));
                        }
                        next.worker_epoch = epoch;
                        let cum = next.apply_binned();
                        next.worker = WPhase::SendSealed { epoch, cum };
                    }
                    Msg::Shutdown => {
                        let cum = next.apply_binned();
                        next.worker = WPhase::SendDone { cum };
                    }
                }
                // Pop → notify_one(not_full), as in Receiver::recv.
                Ok(self.notify_one(next, |s| &mut s.data.wait_full))
            }
        }
    }

    fn worker_send_acc(&self, st: &St, msg: AMsg) -> Result<Vec<St>, String> {
        if !st.acc.receiver_alive {
            // Accumulator gone: worker ignores the error and keeps going
            // (shard.rs: "Accumulator-side disconnects are ignored").
            let mut next = st.clone();
            next.worker = match msg {
                AMsg::Done { .. } => return Ok(vec![self.worker_drop_ends(next)]),
                _ => WPhase::Loop,
            };
            return Ok(vec![next]);
        }
        if st.acc.q.len() >= st.acc.cap {
            let mut next = st.clone();
            park(&mut next.acc.wait_full, WORKER);
            return Ok(vec![next]);
        }
        let mut next = st.clone();
        next.acc.q.push(msg);
        let done = matches!(msg, AMsg::Done { .. });
        next.worker = WPhase::Loop;
        let mut out = Vec::new();
        for s in self.notify_one(next, |x| &mut x.acc.wait_empty) {
            if done {
                out.push(self.worker_drop_ends(s));
            } else {
                out.push(s);
            }
        }
        Ok(out)
    }

    fn step_accum(&self, st: &St) -> Result<Vec<St>, String> {
        if st.acc.q.is_empty() {
            if st.acc.senders == 0 {
                // recv() -> None: accumulator publishes its drain and exits.
                let mut next = st.clone();
                next.acc_done = true;
                next.acc.receiver_alive = false;
                next = self.notify_all(next, |s| &mut s.acc.wait_full);
                return Ok(vec![next]);
            }
            let mut next = st.clone();
            park(&mut next.acc.wait_empty, ACCUM);
            return Ok(vec![next]);
        }
        let mut next = st.clone();
        let msg = next.acc.q.remove(0);
        match msg {
            AMsg::Sealed { epoch, cum } => {
                if epoch != next.applied_epoch + 1 {
                    return Err(format!(
                        "epoch wave misaligned: applied {} then got {epoch}",
                        next.applied_epoch
                    ));
                }
                next.applied_epoch = epoch;
                // One shard: the sum over shards is this shard's state.
                next.total = cum;
                if let Some(&(_, want)) = next.expected.iter().find(|&&(e, _)| e == epoch) {
                    if next.total != want {
                        return Err(format!(
                            "epoch {epoch} published total {} != {want} tuples \
                             enqueued before its seal",
                            next.total
                        ));
                    }
                }
            }
            AMsg::Done { cum } => {
                next.total = cum;
            }
        }
        Ok(self.notify_one(next, |s| &mut s.acc.wait_full))
    }

    fn check_terminal(&self, st: &St) -> Result<(), String> {
        if self.strict_totals {
            if st.cum_binned != st.enqueued {
                return Err(format!(
                    "worker binned {} of {} enqueued tuples",
                    st.cum_binned, st.enqueued
                ));
            }
            if st.cum_applied != st.cum_binned || st.total != st.cum_applied {
                return Err(format!(
                    "published total {} / worker state {} != {} binned tuples",
                    st.total, st.cum_applied, st.cum_binned
                ));
            }
        } else if st.total > st.enqueued {
            return Err(format!(
                "accumulator invented tuples: total {} > enqueued {}",
                st.total, st.enqueued
            ));
        }
        Ok(())
    }
}

impl Model for Scenario {
    type State = St;

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&self) -> St {
        let p = self.producers.len();
        St {
            // Senders on data: every producer plus main's handle.
            data: Chan::new(self.cap_data, p as u8 + 1),
            // Sender on acc: the worker.
            acc: Chan::new(self.cap_acc, 1),
            prods: vec![
                Prod {
                    pc: 0,
                    seq: 0,
                    sealing: None,
                    done: false
                };
                p
            ],
            main: MPhase::Join,
            worker: WPhase::Loop,
            worker_consumed: 0,
            cum_binned: 0,
            cum_applied: 0,
            worker_epoch: 0,
            last_seq: vec![None; p],
            applied_epoch: 0,
            total: 0,
            acc_done: false,
            lock_holder: None,
            lock_waiters: Vec::new(),
            epochs_sealed: 0,
            expected: Vec::new(),
            enqueued: 0,
            bounced: 0,
        }
    }

    fn successors(&self, st: &St) -> Result<Vec<St>, String> {
        let mut out = Vec::new();
        for tid in (0..self.thread_count()).filter(|&t| self.runnable(st, t)) {
            out.extend(self.step(st, tid)?);
        }
        Ok(out)
    }

    fn check_end(&self, st: &St) -> Result<(), String> {
        let stuck: Vec<u8> = (0..self.thread_count())
            .filter(|&t| !self.is_done(st, t))
            .collect();
        if !stuck.is_empty() {
            return Err(format!(
                "deadlock: threads {stuck:?} blocked with no runnable thread \
                 (lost wakeup or protocol hole)"
            ));
        }
        self.check_terminal(st)
    }
}

/// The standard scenario suite: seal/data contention, seal racing blocked
/// sends, competing sealers through the lock, and receiver drops.
pub fn standard_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "two_producers_one_seal",
            cap_data: 1,
            cap_acc: 1,
            producers: vec![
                vec![POp::Send(1), POp::Send(1), POp::Seal],
                vec![POp::Send(1), POp::Send(1)],
            ],
            worker_exit_after: None,
            buggy_drop_notify_one: false,
            strict_totals: true,
        },
        Scenario {
            name: "seal_during_blocked_send",
            cap_data: 1,
            cap_acc: 1,
            producers: vec![
                vec![POp::Send(1), POp::Send(1), POp::Send(1)],
                vec![POp::Seal],
            ],
            worker_exit_after: None,
            buggy_drop_notify_one: false,
            strict_totals: true,
        },
        Scenario {
            name: "competing_sealers",
            cap_data: 1,
            cap_acc: 2,
            producers: vec![
                vec![POp::Send(1), POp::Seal, POp::Send(1)],
                vec![POp::Seal, POp::Send(1)],
            ],
            worker_exit_after: None,
            buggy_drop_notify_one: false,
            strict_totals: true,
        },
        Scenario {
            name: "capacity_two_pipelining",
            cap_data: 2,
            cap_acc: 1,
            producers: vec![
                vec![POp::Send(2), POp::Send(1), POp::Seal],
                vec![POp::Send(1), POp::Send(2)],
            ],
            worker_exit_after: None,
            buggy_drop_notify_one: false,
            strict_totals: true,
        },
        Scenario {
            name: "receiver_drop_mid_epoch",
            cap_data: 1,
            cap_acc: 1,
            producers: vec![
                vec![POp::Send(1), POp::Send(1), POp::Seal],
                vec![POp::Send(1)],
            ],
            worker_exit_after: Some(1),
            buggy_drop_notify_one: false,
            strict_totals: false,
        },
    ]
}

/// The seeded lost-wakeup mutation the self-test must catch: two
/// producers both end up blocked on the full FIFO; the buggy receiver
/// drop wakes only one; the other sleeps forever.
pub fn lost_wakeup_mutation() -> Scenario {
    Scenario {
        name: "lost_wakeup_mutation",
        cap_data: 1,
        cap_acc: 1,
        producers: vec![vec![POp::Send(1), POp::Send(1)], vec![POp::Send(1)]],
        worker_exit_after: Some(0),
        buggy_drop_notify_one: true,
        strict_totals: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenarios_exhaust_cleanly() {
        // (states, terminals) as the per-module driver reported them
        // before the three drivers became one.
        let want = [(480, 3), (494, 4), (1194, 4), (608, 3), (174, 5)];
        for (sc, want) in standard_scenarios().iter().zip(want) {
            let stats = explore(sc).unwrap_or_else(|v| panic!("{v}"));
            assert_eq!((stats.states, stats.terminals), want, "{}", sc.name);
        }
    }

    #[test]
    fn snapshot_invariant_is_checked_with_the_worker_an_epoch_ahead() {
        // Shard-side Accumulate lets the worker apply epoch `e + 1` into
        // its own state while `e` still waits in the accumulator's inbox;
        // "snapshot `e` equals the tuples before the `e`-th marker" only
        // bites if such schedules are among the ones exhausted above.
        let sc = &standard_scenarios()[2];
        assert_eq!((sc.name, sc.cap_acc), ("competing_sealers", 2));
        let (mut seen, mut stack, mut ahead) = (HashSet::new(), vec![sc.initial()], 0);
        while let Some(st) = stack.pop() {
            if seen.insert(st.clone()) {
                ahead += usize::from(st.worker_epoch >= st.applied_epoch + 2);
                stack.extend(sc.successors(&st).expect("invariants hold"));
            }
        }
        assert!(ahead > 0, "no schedule has the worker ahead");
    }

    #[test]
    fn seeded_lost_wakeup_is_detected_as_deadlock() {
        let err =
            explore(&lost_wakeup_mutation()).expect_err("lost wakeup must deadlock some schedule");
        assert!(err.message.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn misaligned_epoch_would_be_caught() {
        // Sanity-check the checker: corrupt the expected table by hand and
        // confirm the worker-side assert fires. (Drive the model directly.)
        let sc = Scenario {
            name: "self_check",
            cap_data: 1,
            cap_acc: 1,
            producers: vec![vec![POp::Send(1), POp::Seal]],
            worker_exit_after: None,
            buggy_drop_notify_one: false,
            strict_totals: true,
        };
        let mut st = sc.initial();
        // Pretend a marker for epoch 1 was enqueued claiming 5 tuples.
        st.data.q.push(Msg::Seal(1));
        st.expected.push((1, 5));
        let err = sc
            .step_worker(&st)
            .expect_err("mismatched seal must violate");
        assert!(err.contains("snapshot mismatch"), "got: {err}");
    }
}
