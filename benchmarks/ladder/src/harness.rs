//! The skeleton every workload shares: set-up (timed, repeated), one
//! discarded warm-up repeat, timed repeats, correctness gates outside the
//! timed region, and the report.

use crate::env::{self, Scratch};
use crate::json::Json;
use crate::metrics::{self, Metrics, Source};
use crate::spans::{self, Tracer};
use crate::stats::{self, Summary};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Every size divided by 16: exercises every code path in seconds.
    /// Smoke results are never compared.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// `n` at full scale, `n / 16` (at least 1) at smoke scale.
    pub fn size(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => (n / 16).max(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub scale: Scale,
    pub seed: u64,
    /// Wall time the timed repeats fill.
    pub seconds: f64,
    /// Load threads / connections (`min(nproc, 2)`).
    pub threads: usize,
}

/// Operations attempted and failed, plus named pass/fail gates. A failed
/// gate counts as one failed operation and fails the run.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    gates: Vec<(String, bool, String)>,
}

impl Checks {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness gate; only the first pass per name is kept,
    /// every failure is.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.gates.push((name.to_string(), false, detail()));
        } else if !self.gates.iter().any(|(n, ..)| n == name) {
            self.gates.push((name.to_string(), true, detail()));
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.gates
                .iter()
                .map(|(name, ok, detail)| {
                    Json::obj()
                        .with("name", name.as_str())
                        .with("ok", *ok)
                        .with("detail", detail.as_str())
                })
                .collect(),
        )
    }
}

/// What one timed repeat did.
pub struct Repeat {
    /// Update tuples applied (partial products for SpGEMM).
    pub tuples: u64,
    /// Wall time from the first insert/send until the result is visible.
    pub seconds: f64,
}

pub trait Workload: Sized {
    /// Generates inputs, pre-faults tables, starts long-lived servers.
    /// `recycled` is the previous set-up of the same run, already stopped:
    /// a workload whose set-up is mostly page faults may refill its
    /// buffers instead of allocating fresh ones, so the repeated set-ups
    /// time the work and not the VM's first-touch speed of the minute.
    fn setup(p: &Params, scratch: &Scratch, recycled: Option<Self>) -> Self;

    /// One repeat. State is reset before and verified after the timed
    /// region, never inside it.
    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat;

    /// Forgets the latency samples pooled so far (after the warm-up).
    fn clear_samples(&mut self) {}

    /// Stops what `setup` started without reporting (a repeated set-up);
    /// returns what the next `setup` may recycle, if anything.
    fn discard(self) -> Option<Self> {
        None
    }

    /// Stops what `setup` started, verifies the final state, and reports
    /// the workload's own end-to-end metrics and counted layer metrics.
    fn finish(self, e2e: &mut Metrics, layers: &mut Metrics, checks: &mut Checks);

    /// The exact configuration under test, for the stamp.
    fn config(&self) -> Json;
}

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 64;

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub stamp: Json,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub checks: Checks,
    pub spans: Vec<spans::Span>,
    /// `updates_per_s` of every timed repeat, in order.
    pub repeat_rates: Vec<f64>,
    pub params: Params,
}

/// Runs workload `W` under the common skeleton. In a traced run `tr` is
/// on and `layers` / `checks` already hold the ladder's and the probes'.
pub fn run<W: Workload>(
    name: &'static str,
    p: &Params,
    process_start: Instant,
    mut tr: Tracer,
    mut layers: Metrics,
    mut checks: Checks,
) -> Report {
    let traced = tr.is_on();
    let scratch = Scratch::new(name).expect("scratch directory");
    let mut e2e = Metrics::default();

    // Set-up, including the discarded warm-up repeat. An untraced run
    // sets up several times so `setup_s` is a median, not one sample; the
    // first sample runs from process start.
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut live = None;
    let mut recycled = None;
    for i in 0..setups {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut w = W::setup(p, &scratch, recycled.take().flatten());
        let mut off = Tracer::new(false);
        w.repeat(&mut off, &mut checks);
        w.clear_samples();
        setup_secs.push(t0.elapsed().as_secs_f64());
        if i + 1 < setups {
            recycled = Some(w.discard());
        } else {
            live = Some(w);
        }
    }
    let mut w = live.expect("at least one set-up");
    let config = w.config();
    e2e.samples("setup_s", &setup_secs);

    // Timed repeats. A traced run alternates recorded and unrecorded
    // repeats so the two rates share drift; their ratio is the overhead.
    let mut rates = Vec::new();
    let phase = Instant::now();
    let mut n = 0usize;
    while n < MAX_REPEATS && (n < MIN_REPEATS || phase.elapsed().as_secs_f64() < p.seconds) {
        let record = traced && n.is_multiple_of(2);
        tr.set_on(record);
        tr.enter("repeat");
        let r = w.repeat(&mut tr, &mut checks);
        tr.count("tuples", r.tuples as f64);
        tr.exit();
        rates.push(r.tuples as f64 / r.seconds);
        n += 1;
    }
    tr.set_on(traced);

    e2e.samples("updates_per_s", &rates);
    w.finish(&mut e2e, &mut layers, &mut checks);
    e2e.val("peak_rss_mib", env::peak_rss_mib());
    e2e.val(metrics::FAILED_FRAC, checks.failed_frac());

    let spans = tr.into_spans();
    if traced {
        // The only difference between a recorded and an unrecorded
        // repeat is the benchmark's own span calls, so their cost is
        // accounted directly; the measured on/off difference is reported
        // beside it but is no finer than the repeat-to-repeat noise.
        let recorded = spans.iter().filter(|s| s.name == "repeat");
        let (count, wall_ns) = recorded.fold((0.0, 0.0), |(c, w), r| {
            let inside = spans
                .iter()
                .filter(|s| s.start_ns >= r.start_ns && s.end_ns <= r.end_ns)
                .count();
            (c + inside as f64, w + (r.end_ns - r.start_ns) as f64)
        });
        layers.val(
            "trace.overhead_frac",
            count * spans::cost_per_span_ns() / wall_ns.max(1.0),
        );
        // Even repeats were recorded, odd ones were not.
        let on: Vec<f64> = rates.iter().copied().step_by(2).collect();
        let off: Vec<f64> = rates.iter().copied().skip(1).step_by(2).collect();
        let diff = if off.is_empty() {
            0.0
        } else {
            1.0 - stats::median(&on) / stats::median(&off)
        };
        layers.val("trace.on_off_diff_frac", diff);
        layers.val("trace.spans", spans.len() as f64);
        // Workload-specific end-to-end metrics ride along as layer
        // metrics of the traced run; a metric this workload cannot
        // supply reads 0. A probe metric that is missing is a bug.
        for e in metrics::END_TO_END.iter().filter(|e| !e.universal()) {
            let s = e2e.get(e.name).unwrap_or(Summary::single(0.0));
            layers.put(e.name, s);
        }
        let missing: Vec<&str> = metrics::PER_LAYER
            .iter()
            .filter(|pl| layers.get(pl.name).is_none())
            .filter(|pl| !matches!(pl.source, Source::Only(on) if !on.contains(&name)))
            .map(|pl| pl.name)
            .collect();
        checks.gate("per_layer_complete", missing.is_empty(), || {
            format!("not measured: {missing:?}")
        });
        for pl in metrics::PER_LAYER {
            if layers.get(pl.name).is_none() {
                layers.val(pl.name, 0.0);
            }
        }
    }
    let missing: Vec<&str> = metrics::END_TO_END
        .iter()
        .filter(|e| e.on.contains(&name) && e2e.get(e.name).is_none())
        .map(|e| e.name)
        .collect();
    checks.gate("end_to_end_complete", missing.is_empty(), || {
        format!("not measured: {missing:?}")
    });

    let mut stamp = env::stamp(p.seed, p.scale.name(), p.seconds);
    stamp
        .set("threads", p.threads)
        .set("repeats", n)
        .set("config", config);
    Report {
        workload: name,
        traced,
        stamp,
        end_to_end: e2e,
        per_layer: layers,
        checks,
        spans,
        repeat_rates: rates,
        params: *p,
    }
}

impl Report {
    pub fn to_json(&self) -> Json {
        let table = |m: &Metrics| {
            let mut o = Json::obj();
            for (name, s) in m.iter() {
                o.set(name, s.to_json(metrics::unit_of(name)));
            }
            o
        };
        Json::obj()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("stamp", self.stamp.clone())
            .with("correct", self.checks.ok())
            .with("attempted", self.checks.attempted)
            .with("failed", self.checks.failed)
            .with(
                "repeat_rates",
                self.repeat_rates
                    .iter()
                    .map(|&r| Json::from(r))
                    .collect::<Vec<_>>(),
            )
            .with("end_to_end", table(&self.end_to_end))
            .with("per_layer", table(&self.per_layer))
            .with(
                "unbacked_percentiles",
                self.end_to_end
                    .unbacked
                    .iter()
                    .chain(&self.per_layer.unbacked)
                    .map(|n| Json::from(n.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("checks", self.checks.to_json())
    }

    /// The line the external driver reads: every universal end-to-end
    /// metric untraced, every per-layer metric traced.
    pub fn driver_line(&self) -> String {
        let mut out = Json::obj();
        let mut put = |name: &str, unit: &str, m: &Metrics| {
            out.set(
                name,
                Json::obj().with("value", m.value(name)).with("unit", unit),
            );
        };
        if self.traced {
            for e in metrics::END_TO_END.iter().filter(|e| !e.universal()) {
                put(e.name, e.unit, &self.per_layer);
            }
            for p in metrics::PER_LAYER {
                put(p.name, p.unit, &self.per_layer);
            }
        } else {
            for e in metrics::END_TO_END.iter().filter(|e| e.universal()) {
                put(e.name, e.unit, &self.end_to_end);
            }
        }
        Json::obj()
            .with("correct", self.checks.ok())
            .with("attempted", self.checks.attempted.max(1))
            .with("failed", self.checks.failed)
            .with("metrics", out)
            .to_line()
    }

    /// Human-readable tables.
    pub fn print(&self) {
        println!(
            "== {} ({} scale, seed {:#x}, {} repeats{}) ==",
            self.workload,
            self.params.scale.name(),
            self.params.seed,
            self.repeat_rates.len(),
            if self.traced { ", traced" } else { "" },
        );
        let row = |name: &str, s: &Summary| {
            println!(
                "  {:<34} {:>16} {:<8} n={:<6} min={:<14} max={:<14} mad={}",
                name,
                fmt(s.value),
                metrics::unit_of(name),
                s.n,
                fmt(s.min),
                fmt(s.max),
                fmt(s.mad)
            );
        };
        println!("end-to-end:");
        for (name, s) in self.end_to_end.iter() {
            row(name, s);
        }
        if self.traced {
            println!("per-layer:");
            for (name, s) in self.per_layer.iter() {
                row(name, s);
            }
        }
        for name in self
            .end_to_end
            .unbacked
            .iter()
            .chain(&self.per_layer.unbacked)
        {
            println!("  [note] {name}: fewer than ten samples beyond this percentile");
        }
        for (name, ok, detail) in &self.checks.gates {
            println!("  [{}] {name}: {detail}", if *ok { "ok" } else { "FAIL" });
        }
    }
}

fn fmt(x: f64) -> String {
    let a = x.abs();
    if x == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{x:.4e}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else if a >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}
