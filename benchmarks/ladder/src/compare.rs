//! `cobra-ladder compare A.json [B.json]`: the noise-aware verdict per
//! (end-to-end metric, workload) row between two sets of runs.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The numbers' own noise is wider than the bound and the two sides
    /// overlap: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of a reported number as a share of it: two standard
/// errors either side, estimated from its repeats. Fewer than five repeats
/// (the three set-ups) give no usable estimate.
fn spread(s: &Summary) -> f64 {
    if s.n < 5 {
        0.0
    } else {
        2.0 * s.se
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let band = |s: &Summary| (s.value * (1.0 - spread(s)), s.value * (1.0 + spread(s)));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (band(a), band(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread(a).max(spread(b)) > bound && overlap {
        return Verdict::Unresolved;
    }
    let worse = worsening(a.value, b.value, better);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One set of runs: `{"stamp": .., "workloads": {name: report}}`.
pub struct Set<'a>(pub &'a Json);

impl<'a> Set<'a> {
    /// Sets in a results file: its `sets` array, or the file itself.
    pub fn all(file: &'a Json) -> Vec<Set<'a>> {
        match file.get("sets").and_then(Json::as_arr) {
            Some(sets) => sets.iter().map(Set).collect(),
            None => vec![Set(file)],
        }
    }

    fn reports(&self) -> &'a [(String, Json)] {
        self.0.get("workloads").map_or(&[], Json::members)
    }

    /// Why this set may not be compared, if it may not.
    pub fn refusal(&self) -> Option<String> {
        for (name, report) in self.reports() {
            let stamp = report.get("stamp");
            let field = |k: &str| stamp.and_then(|s| s.get(k));
            if field("scale").and_then(Json::as_str) != Some("full") {
                return Some(format!("{name} was not run at full scale"));
            }
            if field("degraded").and_then(Json::as_bool) != Some(false) {
                return Some(format!("{name} ran degraded (fewer than 2 cores)"));
            }
        }
        self.reports()
            .is_empty()
            .then(|| "no workload reports".to_string())
    }

    fn metric(&self, workload: &str, name: &str) -> Option<Summary> {
        let (_, report) = self.reports().iter().find(|(w, _)| w == workload)?;
        Summary::from_json(report.get("end_to_end")?.get(name)?)
    }

    /// `(attempted, failed)` summed over the set.
    pub fn failures(&self) -> (f64, f64) {
        self.reports()
            .iter()
            .fold((0.0, 0.0), |(att, fail), (_, r)| {
                let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                (att + f("attempted"), fail + f("failed"))
            })
    }
}

/// Every (end-to-end metric, workload) pair both sets measured.
pub fn rows(a: &Set, b: &Set) -> Vec<Row> {
    let mut out = Vec::new();
    for (workload, _) in a.reports() {
        let judged = |e: &&metrics::EndToEnd| {
            e.on.contains(&workload.as_str()) && !e.unjudged_on.contains(&workload.as_str())
        };
        for e in metrics::END_TO_END.iter().filter(judged) {
            let (Some(sa), Some(sb)) = (a.metric(workload, e.name), b.metric(workload, e.name))
            else {
                continue;
            };
            out.push(Row {
                workload: workload.clone(),
                metric: e.name,
                a: sa,
                b: sb,
                bound: e.bound,
                verdict: verdict(&sa, &sb, e.better, e.bound),
            });
        }
    }
    out
}

/// Prints the table; returns the process exit code (0 clean, 1 regressed
/// or failing, 3 unresolved only).
pub fn report(a: &Set, b: &Set) -> i32 {
    let rows = rows(a, b);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "noise"
    );
    for r in &rows {
        println!(
            "{:<14} {:<22} {:>14.6e} {:>14.6e} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            100.0 * (r.b.value - r.a.value) / r.a.value.abs(),
            100.0 * r.bound,
            100.0 * spread(&r.a).max(spread(&r.b)),
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let ((att_a, fail_a), (att_b, fail_b)) = (a.failures(), b.failures());
    let share = |f: f64, n: f64| f / n.max(1.0);
    println!(
        "{} rows: {} improved, {} unchanged, {} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    println!(
        "failure share: A {fail_a}/{att_a} = {:.3e}, B {fail_b}/{att_b} = {:.3e}",
        share(fail_a, att_a),
        share(fail_b, att_b)
    );
    let failing = fail_b > 0.0 && share(fail_b, att_b) >= share(fail_a, att_a);
    if failing {
        println!("B fails operations A did not: no gain counts");
    }
    if count(Verdict::Regressed) > 0 || failing {
        1
    } else if count(Verdict::Unresolved) > 0 {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Summary {
        // Nine repeats within +-1%.
        let v: Vec<f64> = (0..9)
            .map(|i| value * (1.0 + (f64::from(i) - 4.0) * 0.0025))
            .collect();
        Summary::of(&v)
    }

    fn noisy(value: f64) -> Summary {
        let v: Vec<f64> = (0..9)
            .map(|i| value * (1.0 + (f64::from(i) - 4.0) * 0.1))
            .collect();
        Summary::of(&v)
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        use Better::{Higher, Lower};
        use Verdict::*;
        // Throughput: higher is better, bound 10%.
        assert_eq!(
            verdict(&steady(100.0), &steady(100.5), Higher, 0.10),
            Unchanged
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(95.0), Higher, 0.10),
            Unchanged
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), Higher, 0.10),
            Regressed
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), Higher, 0.10),
            Improved
        );
        // Latency: lower is better.
        assert_eq!(
            verdict(&steady(10.0), &steady(12.0), Lower, 0.15),
            Regressed
        );
        assert_eq!(verdict(&steady(10.0), &steady(8.0), Lower, 0.15), Improved);
        assert_eq!(
            verdict(&steady(10.0), &steady(11.0), Lower, 0.15),
            Unchanged
        );
        // Noise wider than the bound and overlapping sides: unresolved,
        // even though the medians alone would read "regressed".
        assert_eq!(
            verdict(&noisy(100.0), &noisy(88.0), Higher, 0.10),
            Unresolved
        );
        // ...unless the sides are far enough apart not to overlap.
        assert_eq!(
            verdict(&noisy(100.0), &noisy(40.0), Higher, 0.10),
            Regressed
        );
        assert_eq!(
            verdict(&noisy(100.0), &noisy(250.0), Higher, 0.10),
            Improved
        );
        // Single numbers (counts, one-shot values) have no noise estimate.
        assert_eq!(
            verdict(
                &Summary::single(500.0),
                &Summary::single(560.0),
                Lower,
                0.10
            ),
            Regressed
        );
    }

    fn set(scale: &str, rate: f64, failed: u64) -> Json {
        let report = Json::obj()
            .with(
                "stamp",
                Json::obj().with("scale", scale).with("degraded", false),
            )
            .with("attempted", 1000u64)
            .with("failed", failed)
            .with(
                "end_to_end",
                Json::obj()
                    .with("updates_per_s", steady(rate).to_json("upd/s"))
                    .with("setup_s", steady(1.0).to_json("s")),
            );
        Json::obj().with("workloads", Json::obj().with("batch_uniform", report))
    }

    #[test]
    fn sets_compare_row_by_row_and_smoke_is_refused() {
        // -40%: beyond any bound the tables may hold (they are capped at 0.25).
        let (a, b) = (set("full", 100.0, 0), set("full", 60.0, 0));
        let rows = rows(&Set(&a), &Set(&b));
        let verdicts: Vec<(&str, Verdict)> = rows.iter().map(|r| (r.metric, r.verdict)).collect();
        assert_eq!(
            verdicts,
            vec![
                ("setup_s", Verdict::Unchanged),
                ("updates_per_s", Verdict::Regressed)
            ]
        );
        assert_eq!(report(&Set(&a), &Set(&b)), 1);
        assert_eq!(report(&Set(&a), &Set(&a)), 0);
        // New failures fail the comparison whatever the speeds say.
        assert_eq!(report(&Set(&a), &Set(&set("full", 150.0, 3))), 1);
        assert!(Set(&set("smoke", 100.0, 0))
            .refusal()
            .is_some_and(|r| r.contains("full scale")));
        assert!(Set(&a).refusal().is_none());
        let file = Json::obj().with("sets", vec![a.clone(), b]);
        assert_eq!(Set::all(&file).len(), 2);
        assert_eq!(Set::all(&a).len(), 1);
    }
}
