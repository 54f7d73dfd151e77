//! In-memory span recording for the traced run.
//!
//! One span per call into a layer's public API at epoch granularity
//! (repeat → epoch → call; never per tuple). Spans are recorded from the
//! benchmark's side of the API only; nothing inside the crates is
//! instrumented. A disabled tracer records nothing and costs one branch,
//! which is what lets traced and untraced repeats alternate in one run.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at this boundary (public-stats deltas).
    pub counts: Vec<(&'static str, f64)>,
}

/// A per-thread span recorder. Threads of one run share `origin` and get
/// disjoint id ranges through [`Tracer::fork`], so their spans merge
/// into one tree afterwards.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: SpanId,
    stack: Vec<usize>,
    root_parent: Option<SpanId>,
    spans: Vec<Span>,
}

/// Ids handed to forked tracers start at multiples of this.
const FORK_STRIDE: SpanId = 1 << 24;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            root_parent: None,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; only legal between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    /// A tracer for helper thread `lane` (1-based) whose top-level spans
    /// hang under this tracer's innermost open span.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            next_id: lane * FORK_STRIDE,
            stack: Vec::new(),
            root_parent: self.stack.last().map(|&i| self.spans[i].id),
            spans: Vec::new(),
        }
    }

    /// Adopts a forked tracer's spans.
    pub fn join(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = match self.stack.last() {
            Some(&i) => Some(self.spans[i].id),
            None => self.root_parent,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            if let Some(&i) = self.stack.last() {
                self.spans[i].counts.push((name, value));
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed span");
        self.spans
    }
}

/// What recording one span costs, in nanoseconds: the median of a few
/// thousand enter/count/exit rounds on a scratch tracer.
pub fn cost_per_span_ns() -> f64 {
    let mut t = Tracer::new(true);
    let mut costs: Vec<f64> = (0..4000)
        .map(|_| {
            let t0 = Instant::now();
            t.enter("calibrate");
            t.count("n", 1.0);
            t.exit();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

/// Self time per span: its duration minus the part of its interval that
/// its children cover (children on other threads may overlap each other,
/// so their intervals are merged first). Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.clamp(cursor, s.end_ns);
                let hi = hi.clamp(cursor, s.end_ns);
                covered += hi - lo;
                cursor = hi;
            }
            total - covered
        })
        .collect()
}

/// Total duration, self time and call count per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += own;
        e.2 += 1;
    }
    out
}

/// Columnar encoding: a name table plus `[name, id, parent, start_ns,
/// end_ns]` rows (parent −1 = root) and per-name totals, so a committed
/// trace stays small and still diffs.
pub fn to_json(spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            let name = names.binary_search(&s.name).expect("name interned");
            let mut row: Vec<Json> = vec![
                name.into(),
                u64::from(s.id).into(),
                s.parent.map_or(-1.0, f64::from).into(),
                s.start_ns.into(),
                s.end_ns.into(),
            ];
            if !s.counts.is_empty() {
                let mut counts = Json::obj();
                for &(k, v) in &s.counts {
                    counts.set(k, v);
                }
                row.push(counts);
            }
            Json::Arr(row)
        })
        .collect();
    let mut totals = Json::obj();
    for (name, (total, own, calls)) in by_name(spans) {
        totals.set(
            name,
            Json::obj()
                .with("calls", calls)
                .with("total_ns", total)
                .with("self_ns", own),
        );
    }
    Json::obj()
        .with(
            "columns",
            vec![
                "name".into(),
                "id".into(),
                "parent".into(),
                "start_ns".into(),
                "end_ns".into(),
                "counts".into(),
            ],
        )
        .with(
            "names",
            names.into_iter().map(Json::from).collect::<Vec<_>>(),
        )
        .with("by_name", totals)
        .with("spans", rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: SpanId,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let spans = vec![
            span("repeat", 0, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            // Overlaps `a` (another thread): union [10, 60) = 50.
            span("b", 2, Some(0), 30, 60),
            span("c", 3, Some(0), 80, 90),
            span("leaf", 4, Some(1), 15, 20),
            // Sticks out of its parent: clipped to [80, 90).
            span("late", 5, Some(3), 85, 120),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 50 - 10, 30 - 5, 30, 10 - 5, 5, 35]
        );
        let totals = by_name(&spans);
        assert_eq!(totals["repeat"], (100, 40, 1));
    }

    #[test]
    fn tracer_links_parents_and_forks_share_the_tree() {
        let mut t = Tracer::new(true);
        t.enter("repeat");
        t.enter("epoch");
        t.count("tuples", 42.0);
        let mut side = t.fork(1);
        side.span("writer", |s| s.span("update_all", |_| ()));
        t.exit();
        t.exit();
        t.join(side);
        let spans = t.into_spans();
        let find = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        assert_eq!(find("repeat").parent, None);
        assert_eq!(find("epoch").parent, Some(find("repeat").id));
        assert_eq!(find("writer").parent, Some(find("epoch").id));
        assert_eq!(find("update_all").parent, Some(find("writer").id));
        assert_eq!(find("epoch").counts, vec![("tuples", 42.0)]);
        let mut ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "ids are unique across forks");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("repeat", |t| {
            t.count("n", 1.0);
            7
        });
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.span("repeat", |_| ());
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn json_encoding_is_columnar_and_parses() {
        let mut t = Tracer::new(true);
        t.span("repeat", |t| t.span("epoch", |t| t.count("k", 2.0)));
        let j = to_json(t.spans());
        let back = Json::parse(&j.to_pretty()).expect("parses");
        assert_eq!(
            back.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            back.get("names").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
