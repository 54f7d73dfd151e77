//! The token rules (R1, R2, R3, R9, R11) and rules R6–R8:
//! commit-before-publish dominance, wire-protocol exhaustiveness, and
//! atomics release/acquire pairing.
//!
//! (R5, lock ordering, lives in [`super::graph`] because it needs the
//! full acquisition graph.)

use std::collections::BTreeMap;

use super::lexer::{Kind, Tok};
use super::{Finding, Workspace};

/// One token-sequence rule: a finding for every place one of `patterns`
/// occurs in the token stream of an in-scope file. Working on tokens
/// means comments, string literals (multi-line ones included) and
/// formatting can neither hide a hit nor fake one.
struct TokenRule {
    rule: &'static str,
    /// Which workspace-relative paths the rule covers.
    in_scope: fn(&str) -> bool,
    /// Hits inside test-only fn bodies are not findings.
    skip_tests: bool,
    /// A hit is excused by a comment starting with this marker on its
    /// line, or in the `//` comment block directly above it.
    justified_by: Option<&'static str>,
    /// Each pattern is the texts of consecutive ident/punct tokens.
    patterns: &'static [&'static [&'static str]],
}

/// True when `rel` is `crates/<one of krates>/src/…`.
fn in_src_of(rel: &str, krates: &[&str]) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once("/src/"))
        .is_some_and(|(krate, _)| krates.contains(&krate))
}

/// Files subject to R3 (the binning/accumulate hot path).
const R3_FILES: [&str; 8] = [
    "crates/pb/src/accumulate.rs",
    "crates/pb/src/binner.rs",
    "crates/pb/src/parallel.rs",
    "crates/pb/src/route.rs",
    "crates/core/src/backend.rs",
    "crates/core/src/cobra.rs",
    "crates/core/src/evict.rs",
    "crates/stream/src/shard.rs",
];

const TOKEN_RULES: &[TokenRule] = &[
    // R1 `ordering-justification` — every `Ordering::…` use in the
    // concurrency-protocol crates must carry a `// ordering:` comment
    // explaining why that ordering is sufficient. Atomics without a
    // written-down argument rot.
    TokenRule {
        rule: "R1",
        in_scope: |rel| in_src_of(rel, &["stream", "serve", "wal", "mvcc", "cluster", "poll"]),
        skip_tests: false,
        justified_by: Some("// ordering:"),
        patterns: &[&["Ordering", ":", ":"]],
    },
    // R2 `no-hot-path-unwrap` — no `unwrap()` / `expect()` in the
    // hot-path crates outside test code. Panics in a binning worker
    // poison locks and wedge the pipeline, and a panic on the WAL path
    // turns a disk hiccup into an outage; fallible paths must return
    // errors or document why the panic is unreachable via the allowlist.
    TokenRule {
        rule: "R2",
        in_scope: |rel| {
            in_src_of(
                rel,
                &[
                    "pb", "core", "stream", "sim", "serve", "wal", "mvcc", "bins", "poll",
                    "cluster",
                ],
            )
        },
        skip_tests: true,
        justified_by: None,
        patterns: &[&[".", "unwrap", "(", ")"], &[".", "expect", "("]],
    },
    // R3 `no-mutex-on-binning-path` — the whole point of propagation
    // blocking is that bin ownership makes locks unnecessary there.
    TokenRule {
        rule: "R3",
        in_scope: |rel| R3_FILES.contains(&rel),
        skip_tests: false,
        justified_by: None,
        patterns: &[&["Mutex", "<"], &["Mutex", ":", ":", "new"]],
    },
    // R9 `no-unaudited-unsafe` — no `unsafe` outside allowlist-audited
    // sites, anywhere in the workspace (crate roots are additionally
    // held to `#![forbid(unsafe_code)]`, see `token_rules`).
    TokenRule {
        rule: "R9",
        in_scope: |_| true,
        skip_tests: false,
        justified_by: None,
        patterns: &[&["unsafe"]],
    },
    // R11 `no-blocking-io-on-reactor-path` — the reactor's liveness
    // rests on every syscall being non-blocking; one reinstated blocking
    // read stalls every connection on the loop, and a `sleep` stands in
    // for an event the reactor should wait on (it waits in the poll, and
    // a publish writes its wake socket). Scope is the event-loop crates'
    // `src/`: everything that runs on, or is called from, the reactor
    // thread. The audited exceptions (the client's blocking `write_frame`
    // and its all-BUSY back-off) live in the allowlist.
    TokenRule {
        rule: "R11",
        in_scope: |rel| in_src_of(rel, &["serve", "poll"]),
        skip_tests: false,
        justified_by: None,
        patterns: &[
            &["set_read_timeout"],
            &["set_nonblocking", "(", "false", ")"],
            &[".", "read_exact", "("],
            &[".", "write_all", "("],
            &["sleep", "("],
        ],
    },
];

/// Does `pattern` occur in `toks` starting at index `i`?
fn matches_at(toks: &[Tok], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        toks.get(i + k)
            .is_some_and(|t| matches!(t.kind, Kind::Ident | Kind::Punct) && t.text == *want)
    })
}

/// Is the 1-based `line` justified by a comment starting with `marker`:
/// on the line itself, or anywhere in the contiguous `//` comment block
/// immediately above it?
fn justified(lines: &[&str], line: u32, marker: &str) -> bool {
    let at = line as usize - 1;
    lines[at].contains(marker)
        || lines[..at]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//"))
            .any(|l| l.contains(marker))
}

/// True when `rel` is a crate root that must carry
/// `#![forbid(unsafe_code)]` (or `deny`): lib roots, bin roots, and
/// `src/bin/` targets.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"))
}

/// R1, R2, R3, R9, R11 — the token-sequence rules of `TOKEN_RULES`,
/// plus R9's crate-root half: every crate root must carry
/// `#![forbid(unsafe_code)]` (or `deny`) so the compiler enforces what
/// the rule observes. A finding's message is the offending source line,
/// which is what allowlist needles match against.
pub fn token_rules(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        let lines: Vec<&str> = sf.text.lines().collect();
        let test_bodies: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|f| f.file == fi && f.is_test)
            .filter_map(|f| f.body)
            .collect();
        for r in TOKEN_RULES.iter().filter(|r| (r.in_scope)(&sf.rel)) {
            for i in 0..sf.toks.len() {
                let line = sf.toks[i].line;
                let hit = r.patterns.iter().any(|p| matches_at(&sf.toks, i, p))
                    && !(r.skip_tests && test_bodies.iter().any(|&(a, b)| a <= i && i <= b))
                    && !r.justified_by.is_some_and(|m| justified(&lines, line, m));
                if hit {
                    findings.push(Finding {
                        rule: r.rule,
                        file: sf.rel.clone(),
                        line,
                        message: lines[line as usize - 1].trim().to_string(),
                    });
                }
            }
        }
        let forbids_unsafe = || {
            (0..sf.toks.len()).any(|i| {
                ["forbid", "deny"].iter().any(|level| {
                    let attr = ["#", "!", "[", level, "(", "unsafe_code", ")", "]"];
                    matches_at(&sf.toks, i, &attr)
                })
            })
        };
        if is_crate_root(&sf.rel) && !forbids_unsafe() {
            findings.push(Finding {
                rule: "R9",
                file: sf.rel.clone(),
                line: 1,
                message: "crate root missing #![forbid(unsafe_code)]".into(),
            });
        }
    }
    findings
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::SourceSet;

    /// `(rule, line)` of every token-rule finding for one file of source.
    fn hits(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        let set = SourceSet {
            texts: vec![(rel.to_string(), src.to_string())],
        };
        let mut out: Vec<_> = token_rules(&Workspace::build(&set))
            .iter()
            .map(|f| (f.rule, f.line))
            .collect();
        out.dedup();
        out
    }

    #[test]
    fn source_snippets_yield_exactly_these_findings() {
        // Danger words are spelled out freely below: this file is itself
        // in the analyzed set, and string contents never become tokens.
        let case = |what: &str, rel: &str, src: &str, want: &[(&str, u32)]| {
            assert_eq!(hits(rel, src), want, "{what}");
        };
        case(
            "R1: an ordering without a comment is flagged",
            "crates/stream/src/x.rs",
            "fn f() { let x = a.load(Ordering::Relaxed); }\n",
            &[("R1", 1)],
        );
        case(
            "R1: trailing or preceding (multi-line) justification passes; \
             importing the name is not a use",
            "crates/mvcc/src/x.rs",
            "let x = a.load(Ordering::Relaxed); // ordering: stats only\n\
             // ordering: release pairs with the acquire in recv\n\
             // (two-line justification is fine)\n\
             let y = b.store(1, Ordering::Release);\n\
             use std::sync::atomic::Ordering;\n",
            &[],
        );
        case(
            "R1: a code line between comment and use breaks the block",
            "crates/serve/src/x.rs",
            "// ordering: stats only\nlet z = 1;\nlet y = b.store(1, Ordering::Release);\n",
            &[("R1", 3)],
        );
        case(
            "R2: unwrap/expect outside tests is flagged, inside is not",
            "crates/pb/src/x.rs",
            "fn hot() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { y.expect(\"fine in tests\"); }\n}\n\
             fn also_hot() { z.expect(\"bad\"); }\n",
            &[("R2", 1), ("R2", 6)],
        );
        case(
            "R2: out-of-scope crates and integration tests may unwrap",
            "crates/bench/src/x.rs",
            "fn f() { x.unwrap(); }\n",
            &[],
        );
        case(
            "R2: mentions inside a string literal are ignored",
            "crates/wal/src/x.rs",
            "fn f() { let s = \"docs mention .unwrap() here\"; }\n",
            &[],
        );
        case(
            "R2/R9: a multi-line literal hides nothing and fakes nothing, \
             and line numbers after it stay right",
            "crates/core/src/x.rs",
            "fn f() {\n    let s = \"first line\n        x.unwrap(); unsafe { }\n    \";\n    \
             /* y.unwrap();\n       unsafe */\n    real.unwrap();\n}\n",
            &[("R2", 7)],
        );
        case(
            "R3: a Mutex on the binning path is flagged (and a non-root \
             file needs no unsafe_code attribute)",
            "crates/pb/src/binner.rs",
            "fn f() { let m: Mutex<u32> = Mutex::new(0); }\n",
            &[("R3", 1)],
        );
        case(
            "R3: the same line elsewhere is fine",
            "crates/pb/src/config.rs",
            "fn f() { let m: Mutex<u32> = Mutex::new(0); }\n",
            &[],
        );
        case(
            "R9: the keyword is flagged, not strings or comments; a crate \
             root without the attribute is flagged too (line 1)",
            "crates/pb/src/lib.rs",
            "fn f() { g(); }\nfn h() { unsafe { x } }\nlet s = \"unsafe in a string\";\n\
             // unsafe in a comment\n",
            &[("R9", 2), ("R9", 1)],
        );
        case(
            "R9: a bin root with the attribute passes, and `unsafe_code` \
             is not the keyword",
            "crates/bench/src/bin/fig99.rs",
            "#![forbid(unsafe_code)]\nfn main() {}\n",
            &[],
        );
        case(
            "R9: `deny` counts as the backstop too",
            "crates/poll/src/lib.rs",
            "#![deny(unsafe_code)]\n",
            &[],
        );
        case(
            "R11: blocking socket I/O on the reactor path is flagged, \
             however it is spaced",
            "crates/serve/src/server.rs",
            "fn f() {\nstream.set_read_timeout(Some(t))?;\nsock.set_nonblocking( false )?;\n\
             r.read_exact(&mut buf)?;\nw\n    .write_all(&bytes)?;\nsock.set_nonblocking(true)?;\n\
             // comment: w.write_all(&bytes) is fine here\n\
             let s = \"docs mention write_all( here\";\nstd::thread::sleep(PARK);\n\
             let sleepy = sleep_ms;\n}\n",
            &[("R11", 2), ("R11", 3), ("R11", 4), ("R11", 6), ("R11", 10)],
        );
        case(
            "R11: poll/src is reactor path too",
            "crates/poll/src/sys_epoll.rs",
            "fn f() { w.write_all(&bytes)?; }\n",
            &[("R11", 1)],
        );
        // Clients of the server running on their own threads (tests,
        // benches, other crates) may block freely.
        case(
            "R11: serve's integration tests are out of scope",
            "crates/serve/tests/e2e.rs",
            "fn f() { w.write_all(&bytes)?; }\n",
            &[],
        );
        case(
            "R11: other crates are out of scope",
            "crates/cluster/src/replicate.rs",
            "fn f() { w.write_all(&bytes)?; }\n",
            &[],
        );
    }

    #[test]
    fn a_finding_quotes_its_source_line_for_the_allowlist_needle() {
        let set = SourceSet {
            texts: vec![(
                "crates/stream/src/x.rs".into(),
                "fn f() {\n    let g = m.lock().expect(\"seal lock poisoned\"); // why\n}\n".into(),
            )],
        };
        let found = token_rules(&Workspace::build(&set));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(
            found[0].message,
            "let g = m.lock().expect(\"seal lock poisoned\"); // why"
        );
    }
}
