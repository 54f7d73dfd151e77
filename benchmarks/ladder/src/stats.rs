//! Order statistics: medians with a noise estimate, and the percentile
//! rule (a percentile is reported only with at least ten samples beyond it).

use crate::json::Json;

/// One reported number: the median of `n` samples with its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
    /// Median absolute deviation from `value`.
    pub mad: f64,
    /// Standard error of `value` as a share of it, estimated from the
    /// repeats behind it (0 when there is only one): what `compare` takes
    /// as the run-to-run noise of this number.
    pub se: f64,
}

/// Relative standard error of a median of `n` values with the given MAD
/// (normal approximation: sigma = 1.4826 MAD, SE(median) = 1.2533 sigma / sqrt n).
fn median_se(value: f64, mad: f64, n: usize) -> f64 {
    if n < 2 || value == 0.0 {
        0.0
    } else {
        1.2533 * 1.4826 * mad / (n as f64).sqrt() / value.abs()
    }
}

impl Summary {
    /// A number with no repeats behind it (a count, a computed ratio).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            min: value,
            max: value,
            mad: 0.0,
            se: 0.0,
        }
    }

    /// Median, range and MAD of `samples` (all zero when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                ..Summary::single(0.0)
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let value = median_sorted(&sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|x| (x - value).abs()).collect();
        dev.sort_by(f64::total_cmp);
        let mad = median_sorted(&dev);
        Summary {
            value,
            n: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mad,
            se: median_se(value, mad, sorted.len()),
        }
    }

    /// The `p`-th percentile of one pool of `samples` (a single-shot
    /// probe); range and MAD describe the pool.
    pub fn percentile_of(samples: &[f64], p: f64) -> Summary {
        let mut s = Summary::of(samples);
        if s.n > 0 {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            s.value = percentile_sorted(&sorted, p);
            s.se = 0.0;
        }
        s
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj()
            .with("value", self.value)
            .with("unit", unit)
            .with("n", self.n)
            .with("min", self.min)
            .with("max", self.max)
            .with("mad", self.mad)
            .with("se", self.se)
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            value: f("value")?,
            n: f("n")? as usize,
            min: f("min")?,
            max: f("max")?,
            mad: f("mad")?,
            se: f("se")?,
        })
    }
}

/// Latency samples grouped by timed repeat. The reported percentile is
/// taken over the pooled samples of all repeats; its range, MAD and
/// standard error come from the per-repeat percentiles, so they say how
/// well the number repeats rather than how wide the distribution is.
#[derive(Debug, Default, Clone)]
pub struct Pooled(Vec<Vec<f64>>);

impl Pooled {
    /// Starts the next repeat's group.
    pub fn begin(&mut self) {
        self.0.push(Vec::new());
    }

    pub fn push(&mut self, sample: f64) {
        if self.0.is_empty() {
            self.begin();
        }
        self.0.last_mut().expect("group open").push(sample);
    }

    pub fn extend(&mut self, samples: &[f64]) {
        for &s in samples {
            self.push(s);
        }
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn percentile(&self, p: f64) -> Summary {
        let mut pool: Vec<f64> = self.0.iter().flatten().copied().collect();
        pool.sort_by(f64::total_cmp);
        let per_repeat: Vec<f64> = self
            .0
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                let mut g = g.clone();
                g.sort_by(f64::total_cmp);
                percentile_sorted(&g, p)
            })
            .collect();
        let spread = Summary::of(&per_repeat);
        let value = percentile_sorted(&pool, p);
        Summary {
            value,
            n: pool.len(),
            se: median_se(value, spread.mad, per_repeat.len()),
            ..spread
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of one pool of samples (a single-shot probe).
pub fn p50(samples: &[f64]) -> Summary {
    Summary::percentile_of(samples, 50.0)
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).value
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the benchmark ever reports, ascending, each with the
/// fewest samples that leave ten beyond it.
pub const PERCENTILE_LADDER: [(f64, usize); 4] =
    [(50.0, 20), (90.0, 100), (99.0, 1_000), (99.9, 10_000)];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it (`None` below twenty samples: not even a median
/// is backed by ten samples on its far side).
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|(_, needs)| n >= *needs)
        .map(|(p, _)| *p)
}

/// Whether `p` may be reported from `n` samples under the rule above.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    highest_percentile(n).is_some_and(|top| p <= top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert!(percentile_allowed(150, 90.0));
        assert!(!percentile_allowed(150, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.9), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_median_range_and_mad() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 100.0]);
        assert_eq!((s.value, s.n, s.min, s.max), (5.0, 5, 1.0, 100.0));
        // |x - 5| = 4, 4, 0, 2, 95 -> median 4.
        assert_eq!(s.mad, 4.0);
        assert_eq!(Summary::of(&[2.0, 4.0]).value, 3.0);
        assert_eq!(Summary::of(&[]).n, 0);
        let p = Summary::percentile_of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 90.0);
        assert_eq!(p.value, 9.0);
        assert_eq!(p.n, 10);
    }

    #[test]
    fn pooled_percentile_spread_comes_from_the_repeats() {
        let mut p = Pooled::default();
        for base in [10.0, 12.0, 11.0] {
            p.begin();
            for i in 0..100 {
                p.push(base + f64::from(i) / 100.0);
            }
        }
        let s = p.percentile(50.0);
        assert_eq!(s.n, 300);
        assert!((s.value - 11.0).abs() < 0.5, "pooled median {}", s.value);
        // Per-repeat medians are ~10.5, ~12.5, ~11.5: that is the range.
        assert!(
            (s.min - 10.49).abs() < 0.02 && (s.max - 12.49).abs() < 0.02,
            "{s:?}"
        );
        assert!(s.se > 0.0 && s.se < 0.2);
        assert_eq!(Pooled::default().percentile(90.0).n, 0);
    }

    #[test]
    fn standard_error_shrinks_with_repeats() {
        let few = Summary::of(&[9.0, 10.0, 11.0]);
        let many: Vec<f64> = (0..30).map(|i| 9.0 + f64::from(i % 3)).collect();
        assert!(Summary::of(&many).se < few.se);
        assert_eq!(Summary::single(5.0).se, 0.0);
    }

    #[test]
    fn summary_survives_json() {
        let s = Summary::of(&[1.5, 2.5, 9.25]);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}
