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

/// Converts `WAIT_EPOCH` to `WaitEpoch`.
fn camel(name: &str) -> String {
    name.split('_')
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + &c.as_str().to_lowercase(),
                None => String::new(),
            }
        })
        .collect()
}

/// Extracts the opcode const names declared inside `mod opcodes { … }`
/// of `protocol_file` (consts outside the mod — `PROTOCOL_VERSION`,
/// size limits — are not frame tags).
fn opcode_consts(ws: &Workspace, protocol_file: usize) -> Vec<(String, u32)> {
    let toks = &ws.files[protocol_file].toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_ident("mod") && toks[i + 1].is_ident("opcodes") && toks[i + 2].is_punct('{') {
            let end = super::items::match_brace(toks, i + 2);
            let mut j = i + 3;
            while j + 1 < end {
                if toks[j].is_ident("const") && toks[j + 1].kind == Kind::Ident {
                    out.push((toks[j + 1].text.clone(), toks[j + 1].line));
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    out
}

/// R7 — wire-protocol exhaustiveness.
///
/// Every opcode const in `serve/src/protocol.rs` must have: an encoder
/// mention, a decoder arm, a server dispatch/construction site, a
/// client method site, and at least one test mention. The decoder must
/// also keep its unknown-opcode arm (totality).
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
    let consts = opcode_consts(ws, pf);
    let mut findings = Vec::new();
    if consts.is_empty() {
        findings.push(Finding {
            rule: "R7",
            file: rel,
            line: 1,
            message: "no opcode consts found inside `mod opcodes`".into(),
        });
        return findings;
    }

    // Mention tables: does fn <name> in file <pred> mention const/variant?
    let mentions = |want_file: &dyn Fn(&str) -> bool,
                    want_fn: &dyn Fn(&str, bool) -> bool,
                    konst: &str,
                    variant: &str|
     -> bool {
        ws.fns.iter().enumerate().any(|(fi, f)| {
            want_file(&ws.files[f.file].rel)
                && want_fn(&f.name, f.is_test)
                && (ws.facts[fi].opcodes.iter().any(|(o, _)| o == konst)
                    || ws.facts[fi].frames.iter().any(|(v, _)| v == variant))
        })
    };
    let in_protocol = |r: &str| r.ends_with("serve/src/protocol.rs");
    let in_server = |r: &str| r.ends_with("serve/src/server.rs");
    let in_client = |r: &str| r.ends_with("serve/src/client.rs");
    let any_file = |_: &str| true;

    for (konst, line) in &consts {
        let variant = camel(konst);
        let checks: &[(&str, bool)] = &[
            (
                "encoder in protocol.rs",
                mentions(&in_protocol, &|n, t| n == "encode" && !t, konst, &variant),
            ),
            (
                "decoder arm in protocol.rs",
                mentions(&in_protocol, &|n, t| n == "decode" && !t, konst, &variant),
            ),
            (
                "server dispatch in server.rs",
                mentions(&in_server, &|_, t| !t, konst, &variant),
            ),
            (
                "client method in client.rs",
                mentions(&in_client, &|_, t| !t, konst, &variant),
            ),
            (
                "test mention anywhere",
                mentions(&any_file, &|_, t| t, konst, &variant),
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

    // Decoder totality: the unknown-opcode arm must survive refactors.
    let total = ws.fns.iter().enumerate().any(|(fi, f)| {
        f.name == "decode"
            && !f.is_test
            && in_protocol(&ws.files[f.file].rel)
            && ws.facts[fi].idents.iter().any(|i| i == "UnknownOpcode")
    });
    if !total {
        findings.push(Finding {
            rule: "R7",
            file: rel,
            line: 1,
            message: "decode() has no unknown-opcode fallback arm (UnknownOpcode)".into(),
        });
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
