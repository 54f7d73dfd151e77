//! Rules R6–R8: commit-before-publish dominance, wire-protocol
//! exhaustiveness, and atomics release/acquire pairing.
//!
//! (R5, lock ordering, lives in [`super::graph`] because it needs the
//! full acquisition graph.)

use std::collections::BTreeMap;

use super::lexer::Kind;
use super::{Finding, Workspace};

/// Call names that count as a durability point for R6: a WAL commit or
/// an explicit seal+flush of the commit record.
const COMMIT_CLASS: &[&str] = &["commit", "seal_flush"];

/// R6 — commit-before-publish dominance.
///
/// Every non-test fn that calls a `publish`-class fn (a workspace fn
/// named `publish`) must make a commit-class call textually before the
/// publish call in the same body. Straight-line dominance by token
/// order is conservative for the shapes in this codebase: `advance()`
/// and `run()` both commit (possibly conditionally, which still
/// dominates the *durable* path) before publishing.
///
/// Additionally the durable sink wiring must exist somewhere: one
/// non-test fn that appends an `EpochCommit` record *and* calls
/// `seal_flush` — this is the "observable implies durable" anchor from
/// the WAL integration.
pub fn r6_commit_before_publish(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let publish_exists = ws.by_name.contains_key("publish");
    if !publish_exists {
        return findings;
    }
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test || f.name == "publish" {
            continue;
        }
        let facts = &ws.facts[fi];
        for c in &facts.calls {
            if c.name != "publish" {
                continue;
            }
            let dominated = facts
                .calls
                .iter()
                .any(|d| d.tok < c.tok && COMMIT_CLASS.contains(&d.name.as_str()));
            if !dominated {
                findings.push(Finding {
                    rule: "R6",
                    file: ws.files[f.file].rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` calls publish without a preceding WAL commit-class call \
                         ({}) on the path — observable state may outrun durable state",
                        f.name,
                        COMMIT_CLASS.join("/"),
                    ),
                });
            }
        }
    }
    // Existence of the durable epoch-commit sink.
    let sink = ws.fns.iter().enumerate().any(|(fi, f)| {
        !f.is_test
            && ws.facts[fi].idents.iter().any(|i| i == "EpochCommit")
            && ws.facts[fi].calls.iter().any(|c| c.name == "seal_flush")
    });
    if !sink {
        findings.push(Finding {
            rule: "R6",
            file: "crates/stream/src/durable.rs".into(),
            line: 1,
            message: "no durable epoch-commit sink found (a fn appending an EpochCommit \
                      record and calling seal_flush)"
                .into(),
        });
    }
    findings
}

/// Reads the rows of the `frames! { … }` table in `protocol_file`. A
/// row opens with `opcode CONST Variant`, and nothing else in the table
/// is a number followed by two identifiers.
fn table_rows(ws: &Workspace, protocol_file: usize) -> Vec<(String, String, u32)> {
    let toks = &ws.files[protocol_file].toks;
    let Some(open) = toks
        .windows(3)
        .position(|w| w[0].is_ident("frames") && w[1].is_punct('!') && w[2].is_punct('{'))
    else {
        return Vec::new();
    };
    let end = super::items::match_brace(toks, open + 2);
    toks[open + 3..end]
        .windows(3)
        .filter(|w| w[0].kind == Kind::Num && w[1].kind == Kind::Ident && w[2].kind == Kind::Ident)
        .map(|w| (w[1].text.clone(), w[2].text.clone(), w[1].line))
        .collect()
}

/// R7 — wire-protocol exhaustiveness.
///
/// A row of the `frames!` table in `serve/src/protocol.rs` is the
/// opcode const, the `Frame` variant, the encoder arm and the decoder
/// arm at once, so the compiler keeps those four in step. What it
/// cannot see is the code *around* the codec, where a `_ =>` fallback
/// swallows a forgotten kind: every row must have a server
/// dispatch/construction site, a client site, and at least one test
/// mention.
pub fn r7_wire_exhaustiveness(ws: &Workspace) -> Vec<Finding> {
    let Some(pf) = ws
        .files
        .iter()
        .position(|f| f.rel.ends_with("serve/src/protocol.rs"))
    else {
        return vec![Finding {
            rule: "R7",
            file: "crates/serve/src/protocol.rs".into(),
            line: 1,
            message: "protocol definition file not found in the analyzed set".into(),
        }];
    };
    let rel = ws.files[pf].rel.clone();
    let rows = table_rows(ws, pf);
    if rows.is_empty() {
        return vec![Finding {
            rule: "R7",
            file: rel,
            line: 1,
            message: "no `opcode CONST Variant` rows found in a `frames!` table".into(),
        }];
    }

    // Does a fn of <file pred> / <test pred> mention the const or variant?
    let mentions =
        |want_file: &dyn Fn(&str) -> bool, want_test: bool, konst: &str, variant: &str| {
            ws.fns.iter().enumerate().any(|(fi, f)| {
                want_file(&ws.files[f.file].rel)
                    && f.is_test == want_test
                    && (ws.facts[fi].opcodes.iter().any(|(o, _)| o == konst)
                        || ws.facts[fi].frames.iter().any(|(v, _)| v == variant))
            })
        };
    let in_server = |r: &str| r.ends_with("serve/src/server.rs");
    let in_client = |r: &str| r.ends_with("serve/src/client.rs");
    let any_file = |_: &str| true;

    let mut findings = Vec::new();
    for (konst, variant, line) in &rows {
        let checks: &[(&str, bool)] = &[
            (
                "server dispatch in server.rs",
                mentions(&in_server, false, konst, variant),
            ),
            (
                "client method in client.rs",
                mentions(&in_client, false, konst, variant),
            ),
            (
                "test mention anywhere",
                mentions(&any_file, true, konst, variant),
            ),
        ];
        for (what, ok) in checks {
            if !ok {
                findings.push(Finding {
                    rule: "R7",
                    file: rel.clone(),
                    line: *line,
                    message: format!("opcode {konst} (Frame::{variant}) is missing: {what}"),
                });
            }
        }
    }
    findings
}

/// Orderings that release on a store-class access.
fn releases(o: &str) -> bool {
    matches!(o, "Release" | "AcqRel" | "SeqCst")
}

/// Orderings that acquire on a load-class access.
fn acquires(o: &str) -> bool {
    matches!(o, "Acquire" | "AcqRel" | "SeqCst")
}

/// R8 — atomics release/acquire pairing.
///
/// A Release-or-stronger store on a field is only meaningful if some
/// load on the same field is Acquire-or-stronger (workspace-wide), and
/// vice versa: an unpaired half is either dead weight or — worse — a
/// reader assuming an ordering nobody publishes.
pub fn r8_atomics_pairing(ws: &Workspace) -> Vec<Finding> {
    // field -> (release store sites, acquire load sites, all sites)
    #[derive(Default)]
    struct Sides {
        rel_stores: Vec<(String, u32)>,
        acq_loads: Vec<(String, u32)>,
    }
    let mut by_field: BTreeMap<String, Sides> = BTreeMap::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let rel = &ws.files[f.file].rel;
        for a in &ws.facts[fi].atomics {
            let s = by_field.entry(a.field.clone()).or_default();
            if a.store_class && a.orderings.iter().any(|o| releases(o)) {
                s.rel_stores.push((rel.clone(), a.line));
            }
            if a.load_class && a.orderings.iter().any(|o| acquires(o)) {
                s.acq_loads.push((rel.clone(), a.line));
            }
        }
    }
    let mut findings = Vec::new();
    for (field, sides) in &by_field {
        if !sides.rel_stores.is_empty() && sides.acq_loads.is_empty() {
            for (file, line) in &sides.rel_stores {
                findings.push(Finding {
                    rule: "R8",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "release-class store on `{field}` has no Acquire-or-stronger \
                         load partner anywhere in the workspace"
                    ),
                });
            }
        }
        if !sides.acq_loads.is_empty() && sides.rel_stores.is_empty() {
            for (file, line) in &sides.acq_loads {
                findings.push(Finding {
                    rule: "R8",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "acquire-class load on `{field}` has no Release-or-stronger \
                         store partner anywhere in the workspace"
                    ),
                });
            }
        }
    }
    findings
}
