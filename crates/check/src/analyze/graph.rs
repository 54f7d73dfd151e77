//! Conservative call graph, transitive locksets, and the R5 lock-order
//! rule.
//!
//! Call resolution is name-based: a call to `send` may reach *every*
//! non-test workspace fn named `send`. That over-approximates the true
//! graph (so it can produce audited-allowlist entries) but never
//! under-approximates it — a real inversion cannot hide behind dynamic
//! dispatch or generic indirection.
//!
//! Lock identity is `crate::receiver` (`stream::seal_lock`). A fn that
//! locks one of its own parameters (`fn lock(m: &Mutex<T>)`; the
//! workspace has none) gets the parameter's name as its one node, so
//! every mutex passed to it aliases there: an over-approximation that
//! can invent an edge or a cycle, never hide one.

use std::collections::{BTreeMap, BTreeSet};

use super::{Finding, Workspace};

/// Method names shadowed by std traits and collections (`Vec::push`,
/// `Clone::clone`, explicit `drop(x)`, `HashMap::get`, …). Calls to
/// these names are *opaque* to resolution: nearly every such call site
/// targets the std impl, so resolving them to same-named workspace fns
/// floods the graph with impossible edges (e.g. every `.clone()` would
/// "reach" every custom `Clone` impl that takes a lock). The bodies of
/// workspace fns with these names are still analyzed — their own
/// acquisitions produce edges — only cross-fn propagation through the
/// shared name is cut. The tradeoff is documented in DESIGN.md §12.
const OPAQUE_NAMES: &[&str] = &[
    "as_mut",
    "as_ref",
    "borrow",
    "clear",
    "clone",
    "cmp",
    "contains",
    "default",
    "deref",
    "drop",
    "eq",
    "extend",
    "flush",
    "fmt",
    "from",
    "get",
    "hash",
    "index",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "ne",
    "new",
    "next",
    "partial_cmp",
    "pop",
    "push",
    "read",
    "remove",
    "to_string",
    "write",
];

/// Callee candidates for a call name, honoring [`OPAQUE_NAMES`].
fn candidates<'a>(ws: &'a Workspace, name: &str) -> Option<&'a Vec<usize>> {
    if OPAQUE_NAMES.contains(&name) {
        return None;
    }
    ws.by_name.get(name)
}

/// One lock-acquisition event inside a fn body: a direct `.lock()`.
struct Acq {
    id: String,
    tok: usize,
    held_to: usize,
    line: u32,
}

/// Collects the acquisition events of fn `fi`, in body order.
fn acquisitions(ws: &Workspace, fi: usize) -> Vec<Acq> {
    let krate = &ws.files[ws.fns[fi].file].krate;
    ws.facts[fi]
        .locks
        .iter()
        .map(|l| Acq {
            id: format!("{}::{}", krate, l.name),
            tok: l.tok,
            held_to: l.held_to,
            line: l.line,
        })
        .collect()
}

/// Computes the transitive lockset of every fn by fixpoint over the
/// name-based call graph.
fn locksets(ws: &Workspace) -> Vec<BTreeSet<String>> {
    let n = ws.fns.len();
    let mut sets: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (fi, _) in ws.fns.iter().enumerate() {
        for a in acquisitions(ws, fi) {
            sets[fi].insert(a.id);
        }
    }
    // Fixpoint: lockset(f) ⊇ lockset(g) for every candidate callee g.
    loop {
        let mut changed = false;
        for fi in 0..n {
            let mut add: Vec<String> = Vec::new();
            for c in &ws.facts[fi].calls {
                if let Some(cands) = candidates(ws, &c.name) {
                    for &g in cands {
                        if g == fi {
                            continue;
                        }
                        for id in &sets[g] {
                            if !sets[fi].contains(id) {
                                add.push(id.clone());
                            }
                        }
                    }
                }
            }
            for id in add {
                changed |= sets[fi].insert(id);
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// An acquisition-order edge `a -> b` with one representative site.
#[derive(Debug)]
pub struct Edge {
    /// Lock held.
    pub from: String,
    /// Lock acquired while `from` is held (directly or via a callee).
    pub to: String,
    /// Workspace-relative file of the representative site.
    pub file: String,
    /// Line of the representative site.
    pub line: u32,
    /// Human-readable evidence.
    pub via: String,
}

/// Builds the lock acquisition-order graph over all non-test fns.
pub fn lock_order_edges(ws: &Workspace) -> Vec<Edge> {
    let sets = locksets(ws);
    let mut seen: BTreeMap<(String, String), ()> = BTreeMap::new();
    let mut edges = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let facts = &ws.facts[fi];
        let rel = &ws.files[f.file].rel;
        let acqs = acquisitions(ws, fi);
        for (ai, a) in acqs.iter().enumerate() {
            // Direct nested acquisitions inside a's held range.
            for b in acqs.iter().skip(ai + 1) {
                if b.tok <= a.held_to {
                    push_edge(
                        &mut edges,
                        &mut seen,
                        a,
                        &b.id,
                        rel,
                        b.line,
                        format!("{} acquires {} directly at line {}", f.name, b.id, b.line),
                    );
                }
            }
            // Locks acquired by callees invoked inside a's held range.
            for c in &facts.calls {
                if c.tok <= a.tok || c.tok > a.held_to {
                    continue;
                }
                if let Some(cands) = candidates(ws, &c.name) {
                    for &g in cands {
                        for id in &sets[g] {
                            push_edge(
                                &mut edges,
                                &mut seen,
                                a,
                                id,
                                rel,
                                c.line,
                                format!(
                                    "{} calls {} (line {}) which may acquire {}",
                                    f.name, c.name, c.line, id
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    edges
}

fn push_edge(
    edges: &mut Vec<Edge>,
    seen: &mut BTreeMap<(String, String), ()>,
    a: &Acq,
    to: &str,
    rel: &str,
    line: u32,
    via: String,
) {
    let key = (a.id.clone(), to.to_string());
    if seen.contains_key(&key) {
        return;
    }
    seen.insert(key, ());
    edges.push(Edge {
        from: a.id.clone(),
        to: to.to_string(),
        file: rel.to_string(),
        line,
        via: format!("holding {} (line {}): {}", a.id, a.line, via),
    });
}

/// R5: fail on any cycle in the lock acquisition-order graph (including
/// self-edges — re-acquiring a non-reentrant mutex while held).
pub fn r5_lock_order(ws: &Workspace) -> (Vec<Finding>, usize) {
    let edges = lock_order_edges(ws);
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut findings = Vec::new();
    // A cycle exists iff some edge a->b has a path b ->* a. Reporting per
    // offending edge (deduped by unordered node pair) keeps messages
    // anchored to a concrete source site.
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        if reaches(&adj, &e.to, &e.from) {
            let mut pair = [e.from.clone(), e.to.clone()];
            pair.sort();
            if !reported.insert((pair[0].clone(), pair[1].clone())) {
                continue;
            }
            findings.push(Finding {
                rule: "R5",
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "lock-order cycle: {} -> {} and back ({})",
                    e.from, e.to, e.via
                ),
            });
        }
    }
    (findings, edges.len())
}

/// Is `to` reachable from `from` (self-reachability requires ≥1 edge)?
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if let Some(next) = adj.get(n) {
            for &m in next {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
    }
    false
}
