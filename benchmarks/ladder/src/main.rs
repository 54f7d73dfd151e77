//! `cobra-ladder`: the repo's benchmark. See `benchmarks/README.md`.
//!
//! ```text
//! cobra-ladder [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--report F] [--out TRACE]
//! cobra-ladder trace [--workload W] [--out TRACE.json] ...   traced run: ladder, probes, workload(s)
//! cobra-ladder suite --out BENCH.json [--sets N] [--smoke]   every workload, one process each
//! cobra-ladder compare A.json [B.json]                       verdict per (metric, workload)
//! cobra-ladder manifest                                      prints BENCHMARK.json
//! ```

mod compare;
mod drive;
mod env;
mod gen;
mod harness;
mod json;
mod ladder;
mod metrics;
mod probes;
mod sched;
mod spans;
mod stats;
mod workloads;

use harness::{Checks, Params, Report, Scale};
use json::Json;
use metrics::Metrics;
use spans::{Span, Tracer};
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 0xC0B7A;
/// Wall time the timed repeats of a smoke run fill.
const SMOKE_SECONDS: f64 = 0.5;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.parsed(flag, |v| v.parse().ok())
    }

    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => parse(v)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a number, got `{v}`")),
        }
    }

    /// `--seed`, decimal or `0x` hexadecimal.
    fn seed(&self) -> Result<u64, String> {
        let seed = self.parsed("--seed", |v| match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        })?;
        Ok(seed.unwrap_or(DEFAULT_SEED))
    }

    fn params(&self) -> Result<Params, String> {
        let scale = if self.has("--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        };
        let seconds = match self.number::<f64>("--seconds")? {
            Some(s) if s > 0.0 => s,
            Some(_) => return Err("--seconds must be positive".into()),
            None if scale == Scale::Smoke => SMOKE_SECONDS,
            None => metrics::RUN_SECONDS as f64,
        };
        Ok(Params {
            scale,
            seed: self.seed()?,
            seconds,
            threads: env::load_threads(),
        })
    }
}

/// What the traced run measures before any workload: machine probes, the
/// ladder, and every layer probe.
struct Pre {
    spans: Vec<Span>,
    layers: Metrics,
    checks: Checks,
}

fn pre_phase(p: &Params) -> Pre {
    let mut tr = Tracer::new(true);
    let mut layers = Metrics::default();
    let mut checks = Checks::default();
    let scratch = env::Scratch::new("probes").expect("scratch directory");
    let copy_gbps = probes::machine(p, &scratch, &mut tr, &mut layers);
    let stream = ladder::Stream::new(p);
    ladder::run(&stream, p, copy_gbps, &mut tr, &mut layers, &mut checks);
    tr.enter("probes");
    probes::bins(&stream, &mut tr, &mut layers);
    probes::stream(&stream, &mut tr, &mut layers);
    probes::wal(&stream, p, &scratch, &mut tr, &mut layers, &mut checks);
    probes::mvcc(&stream, p, &mut tr, &mut layers, &mut checks);
    probes::poll(p, &mut tr, &mut layers, &mut checks);
    probes::serve(&stream, p, &mut tr, &mut layers, &mut checks);
    probes::cluster_repl(&stream, p, &scratch, &mut tr, &mut layers, &mut checks);
    probes::spgemm_probe(p, copy_gbps, &mut tr, &mut layers, &mut checks);
    tr.exit();
    Pre {
        spans: tr.into_spans(),
        layers,
        checks,
    }
}

fn run_workload(name: &str, p: &Params, start: Instant, pre: Option<&Pre>) -> Option<Report> {
    let (name, run) = workloads::RUNNERS.iter().find(|(n, _)| *n == name)?;
    let layers = pre.map(|p| p.layers.clone()).unwrap_or_default();
    let checks = pre.map(|p| p.checks.clone()).unwrap_or_default();
    Some(run(
        name,
        p,
        start,
        Tracer::new(pre.is_some()),
        layers,
        checks,
    ))
}

fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `run` / `trace` / the flag-only form the external driver uses.
fn cmd_run(args: &Args, start: Instant, force_trace: bool) -> Result<ExitCode, String> {
    let p = args.params()?;
    let traced = force_trace || args.number::<u8>("--trace")? == Some(1);
    let names: Vec<&str> = match args.value("--workload") {
        Some(w) if metrics::ALL.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload `{w}`; one of {:?}", metrics::ALL)),
        None if force_trace => metrics::ALL.to_vec(),
        None => return Err("--workload is required".into()),
    };
    let pre = traced.then(|| pre_phase(&p));
    let mut ok = true;
    let mut trace = Json::obj()
        .with("tool", "cobra-ladder")
        .with("stamp", env::stamp(p.seed, p.scale.name(), p.seconds));
    if let Some(pre) = &pre {
        trace.set("ladder_and_probes", spans::to_json(&pre.spans));
    }
    let mut workloads = Json::obj();
    let mut last = None;
    for (i, name) in names.into_iter().enumerate() {
        // Only the first workload of a process starts at process start.
        let start = if i == 0 { start } else { Instant::now() };
        let report = run_workload(name, &p, start, pre.as_ref()).expect("name was validated");
        report.print();
        ok &= report.checks.ok();
        if traced {
            workloads.set(
                name,
                Json::obj()
                    .with("report", report.to_json())
                    .with("trace", spans::to_json(&report.spans)),
            );
        }
        if let Some(path) = args.value("--report") {
            write_json(path, &report.to_json())?;
        }
        last = Some(report);
    }
    trace.set("workloads", workloads);
    let out = args.value("--out").or(force_trace.then_some("TRACE.json"));
    if let (true, Some(path)) = (traced, out) {
        write_json(path, &trace)?;
        println!("wrote {path}");
    }
    if let Some(report) = last {
        println!("{}", report.driver_line());
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, one child process each (so `VmHWM` is the workload's
/// own), `--sets` times back to back.
fn cmd_suite(args: &Args) -> Result<ExitCode, String> {
    let out = args.value("--out").ok_or("suite needs --out FILE")?;
    let sets = args.number::<usize>("--sets")?.unwrap_or(1);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = env::Scratch::new("suite").map_err(|e| e.to_string())?;
    let report_path = scratch.path().join("report.json");
    let mut ok = true;
    let mut all = Vec::new();
    for set in 0..sets {
        let mut reports = Json::obj();
        for name in metrics::ALL {
            println!("-- set {} of {sets}: {name}", set + 1);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", name, "--report"])
                .arg(&report_path);
            for flag in ["--seed", "--seconds"] {
                if let Some(v) = args.value(flag) {
                    cmd.args([flag, v]);
                }
            }
            if args.has("--smoke") {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            ok &= status.success();
            reports.set(name, read_json(&report_path.to_string_lossy())?);
        }
        // The durability tax at workload scale (the traced run's
        // `wal.tax_frac` is the same ratio on a probe-sized stream).
        let rate = |w: &str| {
            reports.get(w).and_then(|r| {
                r.get("end_to_end")?
                    .get("updates_per_s")?
                    .get("value")?
                    .as_f64()
            })
        };
        let mut derived = Json::obj();
        if let (Some(plain), Some(durable)) =
            (rate(metrics::SERVE_INGEST), rate(metrics::SERVE_DURABLE))
        {
            derived.set("wal.tax_frac", 1.0 - durable / plain);
        }
        all.push(
            Json::obj()
                .with("derived", derived)
                .with("workloads", reports),
        );
    }
    write_json(
        out,
        &Json::obj()
            .with("tool", "cobra-ladder")
            .with("schema", 1u64)
            .with("sets", all),
    )?;
    println!("wrote {out}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let files: Vec<&String> = args
        .0
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let (a, b) = match files.as_slice() {
        [one] => {
            let file = read_json(one)?;
            let sets = compare::Set::all(&file);
            if sets.len() < 2 {
                return Err(format!(
                    "{one} holds {} set(s); give two files or a file with two sets",
                    sets.len()
                ));
            }
            (sets[0].0.clone(), sets[1].0.clone())
        }
        [a, b] => {
            let pick = |path: &str| -> Result<Json, String> {
                let file = read_json(path)?;
                let sets = compare::Set::all(&file);
                Ok(sets.last().expect("a file is at least one set").0.clone())
            };
            (pick(a)?, pick(b)?)
        }
        _ => return Err("usage: cobra-ladder compare A.json [B.json]".into()),
    };
    let (a, b) = (compare::Set(&a), compare::Set(&b));
    if let Some(why) = a.refusal().or_else(|| b.refusal()) {
        return Err(format!("refusing to compare: {why}"));
    }
    Ok(ExitCode::from(compare::report(&a, &b) as u8))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = Args(std::env::args().collect());
    let result = match args.0.get(1).map(String::as_str) {
        Some("trace") => cmd_run(&args, start, true),
        Some("suite") => cmd_suite(&args),
        Some("compare") => cmd_compare(&args),
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => cmd_run(&args, start, false),
        Some(flag) if flag.starts_with("--") => cmd_run(&args, start, false),
        _ => Err(
            "usage: cobra-ladder [run|trace|suite|compare|manifest] ... (see benchmarks/README.md)"
                .into(),
        ),
    };
    result.unwrap_or_else(|why| {
        eprintln!("cobra-ladder: {why}");
        ExitCode::from(2)
    })
}
