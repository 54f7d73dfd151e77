//! `serve_mixed`: reads beside writes on one reactor, below saturation.
//! Small hot state (2^18 keys, 2 MiB) so sleeps and polls are not hidden
//! behind snapshot copying. Thread A runs an open loop: one 4096-tuple
//! `update_all` every 4.096 ms (1 Mupd/s), 90/10-skewed `query` calls in
//! the gaps, `seal()` every 25 ticks without waiting. Thread B holds a
//! `subscribe(0, 2^16)` and timestamps every delta.

use crate::drive;
use crate::env::Scratch;
use crate::gen;
use crate::harness::{Checks, Params, Repeat, Workload};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::sched::Schedule;
use crate::spans::Tracer;
use crate::stats::{self, Pooled};
use cobra_graph::SplitMix64;
use cobra_serve::{ServeClient, ServeConfig, Server, SubEvent};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const KEYS: usize = 1 << 18;
/// Ticks per repeat at full scale (1.02 s).
pub const TICKS: usize = 250;
const PERIOD: Duration = Duration::from_micros(4096);
const SEAL_EVERY: usize = 25;
const SUB_KEYS: u32 = 1 << 16;
/// A tick sent more than this far behind schedule counts as late.
const LATE: Duration = Duration::from_micros(410);

/// What the subscriber thread saw, in arrival order.
struct Arrival {
    epoch: u64,
    at: Instant,
    entries: usize,
}

#[derive(Default)]
struct SubReport {
    gaps: u64,
    lagged: u64,
    events: u64,
}

pub struct ServeMixed {
    server: Server,
    writer: ServeClient,
    subscriber: JoinHandle<SubReport>,
    arrivals: Receiver<Arrival>,
    /// One repeat's frames; replayed every repeat.
    tuples: Vec<(u32, u64)>,
    /// Naive scatter of one repeat's tuples.
    once: Vec<u64>,
    repeats_done: u64,
    rng: SplitMix64,
    num_keys: u32,
    query_us: Pooled,
    ack_us: Pooled,
    delta_ms: Pooled,
    delta_entries: Vec<f64>,
    late_ticks: u64,
    ticks: u64,
    busy_rounds: u64,
}

fn subscribe(addr: std::net::SocketAddr, hi: u32) -> (JoinHandle<SubReport>, Receiver<Arrival>) {
    let (tx, rx) = mpsc::channel();
    let (ready_tx, ready_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let client = ServeClient::connect(addr).expect("connect subscriber");
        let mut sub = client.subscribe(0, hi).expect("subscribe");
        let mut prev = sub.start_epoch();
        ready_tx
            .send(())
            .expect("workload waits for the subscription");
        let mut report = SubReport::default();
        // Ends when the server shuts down (a typed disconnect).
        while let Ok(event) = sub.next_event() {
            let at = Instant::now();
            report.events += 1;
            match event {
                SubEvent::Delta {
                    from_epoch,
                    to_epoch,
                    entries,
                } => {
                    if from_epoch != prev || to_epoch != prev + 1 {
                        report.gaps += 1;
                    }
                    prev = to_epoch;
                    let _ = tx.send(Arrival {
                        epoch: to_epoch,
                        at,
                        entries: entries.len(),
                    });
                }
                SubEvent::Lagged { resume_epoch } => {
                    report.lagged += 1;
                    prev = resume_epoch;
                }
            }
        }
        report
    });
    ready_rx.recv().expect("subscriber registered");
    (handle, rx)
}

impl Workload for ServeMixed {
    fn setup(p: &Params, _: &Scratch, _: Option<Self>) -> Self {
        let keys = p.scale.size(KEYS) as u32;
        let ticks = p.scale.size(TICKS).max(2 * SEAL_EVERY);
        let tuples = gen::uniform_tuples(ticks * drive::FRAME_TUPLES, keys, p.seed);
        let mut once = vec![0u64; keys as usize];
        gen::scatter(&mut once, &tuples);
        let server = Server::start(keys, drive::stream_cfg(), ServeConfig::new())
            .expect("start loopback server");
        let writer = ServeClient::connect(server.local_addr()).expect("connect writer");
        let (subscriber, arrivals) = subscribe(server.local_addr(), SUB_KEYS.min(keys));
        ServeMixed {
            server,
            writer,
            subscriber,
            arrivals,
            tuples,
            once,
            repeats_done: 0,
            rng: SplitMix64::seed_from_u64(p.seed ^ 0x5EED_0A11),
            num_keys: keys,
            query_us: Pooled::default(),
            ack_us: Pooled::default(),
            delta_ms: Pooled::default(),
            delta_entries: Vec::new(),
            late_ticks: 0,
            ticks: 0,
            busy_rounds: 0,
        }
    }

    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat {
        let hot = (self.num_keys / 10).max(1);
        let mut seals: Vec<(u64, Instant)> = Vec::new();
        let mut errors = 0u64;
        let mut queries = 0u64;
        self.query_us.begin();
        self.ack_us.begin();
        self.delta_ms.begin();
        let t0 = Instant::now();
        let schedule = Schedule::new(t0, PERIOD);
        for (tick, frame) in self.tuples.chunks(drive::FRAME_TUPLES).enumerate() {
            let tick = tick as u64;
            tr.enter("tick");
            // Closed-loop point reads fill the gap until the tick is due.
            tr.enter("serve.query_burst");
            while !schedule.is_due(tick, Instant::now()) {
                // 90% of reads on the first 10% of keys.
                let key = if self.rng.u32_below(10) < 9 {
                    self.rng.u32_below(hot)
                } else {
                    self.rng.u32_below(self.num_keys)
                };
                let t = Instant::now();
                errors += u64::from(self.writer.query(key).is_err());
                self.query_us.push(t.elapsed().as_secs_f64() * 1e6);
                queries += 1;
            }
            tr.exit();
            if schedule.lateness(tick, Instant::now()) > LATE {
                self.late_ticks += 1;
            }
            tr.enter("serve.update_all");
            match self.writer.update_all(frame) {
                Ok(busy) => self.busy_rounds += busy,
                Err(_) => errors += 1,
            }
            tr.exit();
            // Open loop: the ack is timed from when the frame was due.
            self.ack_us
                .push(schedule.latency(tick, Instant::now()).as_secs_f64() * 1e6);
            if (tick + 1).is_multiple_of(SEAL_EVERY as u64) {
                let called = Instant::now();
                tr.enter("serve.seal");
                match self.writer.seal() {
                    Ok(epoch) => seals.push((epoch, called)),
                    Err(_) => errors += 1,
                }
                tr.exit();
            }
            tr.exit();
        }
        let seconds = t0.elapsed().as_secs_f64();
        let ticks = self.tuples.len().div_ceil(drive::FRAME_TUPLES) as u64;
        self.ticks += ticks;
        self.repeats_done += 1;

        // Match each seal with the arrival of its delta at the subscriber.
        tr.enter("mvcc.await_deltas");
        let last = seals.last().map_or(0, |s| s.0);
        let mut missing = seals.len() as u64;
        while missing > 0 {
            let Ok(arrival) = self.arrivals.recv_timeout(Duration::from_secs(10)) else {
                break;
            };
            if let Some(&(_, called)) = seals.iter().find(|s| s.0 == arrival.epoch) {
                self.delta_ms
                    .push(arrival.at.saturating_duration_since(called).as_secs_f64() * 1e3);
                self.delta_entries.push(arrival.entries as f64);
                missing -= 1;
            }
            if arrival.epoch >= last {
                break;
            }
        }
        tr.exit();
        checks.ops(ticks + queries + seals.len() as u64, errors);
        checks.gate("every_seal_reached_the_subscriber", missing == 0, || {
            format!(
                "{missing} of {} sealed epochs never arrived as a delta",
                seals.len()
            )
        });
        Repeat {
            tuples: self.tuples.len() as u64,
            seconds,
        }
    }

    fn clear_samples(&mut self) {
        self.query_us.clear();
        self.ack_us.clear();
        self.delta_ms.clear();
        self.delta_entries.clear();
        self.late_ticks = 0;
        self.ticks = 0;
        self.busy_rounds = 0;
    }

    fn discard(self) -> Option<Self> {
        drop(self.writer);
        self.server.shutdown();
        self.subscriber.join().expect("subscriber thread");
        None
    }

    fn finish(self, e2e: &mut Metrics, layers: &mut Metrics, checks: &mut Checks) {
        drop(self.writer);
        let (snapshot, stats) = self.server.shutdown();
        let report = self.subscriber.join().expect("subscriber thread");

        let want: Vec<u64> = self
            .once
            .iter()
            .map(|v| v.wrapping_mul(self.repeats_done))
            .collect();
        let (got, want) = (gen::digest(snapshot.iter()), gen::digest(&want));
        checks.gate("snapshot_equals_scatter", got == want, || {
            format!(
                "snapshot digest {got:#018x}, {} x naive scatter {want:#018x}",
                self.repeats_done
            )
        });
        let sent = self.tuples.len() as u64 * self.repeats_done;
        checks.gate("no_tuple_lost", stats.tuples_ingested == sent, || {
            format!("server ingested {} of {sent} tuples", stats.tuples_ingested)
        });
        checks.gate(
            "deltas_gap_free",
            report.gaps == 0 && report.lagged == 0,
            || {
                format!(
                    "{} events, {} gaps, {} lagged",
                    report.events, report.gaps, report.lagged
                )
            },
        );

        e2e.percentile("query_p50_us", &self.query_us, 50.0);
        e2e.percentile("delta_p50_ms", &self.delta_ms, 50.0);
        // Tails (and the open-loop ack, which inherits every stall of the
        // tick before it) do not repeat within a tenth on a shared 2-core
        // VM, so they are layer metrics: reported, never bounded.
        layers.percentile("serve.query_p90_us", &self.query_us, 90.0);
        layers.percentile("serve.update_ack_p50_us", &self.ack_us, 50.0);
        layers.percentile("serve.query_p99_us", &self.query_us, 99.0);
        layers.percentile("serve.update_ack_p99_us", &self.ack_us, 99.0);
        layers.percentile("serve.delta_p90_ms", &self.delta_ms, 90.0);
        layers.val(
            "serve.late_frac",
            self.late_ticks as f64 / self.ticks.max(1) as f64,
        );
        layers.val("mvcc.lag_events", report.lagged as f64);
        layers.val(
            "mvcc.delta_entries_per_epoch",
            stats::median(&self.delta_entries),
        );
        super::serve_counts(&stats, self.busy_rounds, layers);
    }

    fn config(&self) -> Json {
        Json::obj()
            .with("keys", u64::from(self.num_keys))
            .with("ticks_per_repeat", self.tuples.len() / drive::FRAME_TUPLES)
            .with("period_us", PERIOD.as_micros() as u64)
            .with("seal_every_ticks", SEAL_EVERY)
            .with("subscribed_keys", u64::from(SUB_KEYS.min(self.num_keys)))
            .with("stream_config", format!("{:?}", drive::stream_cfg()))
            .with("serve_config", format!("{:?}", ServeConfig::new()))
    }
}
