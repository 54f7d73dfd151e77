//! Per-function fact extraction: calls, lock acquisitions (with held
//! ranges), atomic sites with orderings, and frame-tag mentions.
//!
//! Facts are token-index based so the rules can reason about order and
//! overlap ("lock B acquired while lock A is held") without a real CFG.
//! Held ranges use two statement-shape heuristics, both conservative:
//!
//! * a **let-bound** guard (`let g = m.lock()…;`, including
//!   `let x = { let g = m.lock()…; … }`) is held to the end of the
//!   innermost enclosing block;
//! * a **temporary** guard (`m.lock().unwrap().field = v;`) is held to
//!   the end of the statement — and when the statement runs into a `{`
//!   before any `;` (a `for`/`if`/`while` header such as
//!   `for line in stdin.lock().lines() { … }`), to the end of that
//!   block, which is exactly how long the borrow lives.

use super::items::{match_brace, match_paren};
use super::lexer::{Kind, Tok};

/// Atomic methods the analyzer recognizes, with their access class.
const ATOMIC_METHODS: &[(&str, bool, bool)] = &[
    // (name, store-class, load-class)
    ("load", false, true),
    ("store", true, false),
    ("swap", true, true),
    ("fetch_add", true, true),
    ("fetch_sub", true, true),
    ("fetch_and", true, true),
    ("fetch_or", true, true),
    ("fetch_xor", true, true),
    ("fetch_max", true, true),
    ("fetch_min", true, true),
    ("fetch_update", true, true),
    ("compare_exchange", true, true),
    ("compare_exchange_weak", true, true),
];

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "let", "move", "as", "ref",
    "mut", "await", "fn", "impl", "where", "pub", "use", "dyn",
];

/// A lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: the receiver field/static name (`seal_lock`,
    /// `state`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the `lock` method ident.
    pub tok: usize,
    /// Token index through which the guard is (conservatively) held.
    pub held_to: usize,
}

/// A call site (free fn, method, or path call — the unqualified name).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the callee ident.
    pub tok: usize,
}

/// An atomic operation site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Field/static the atomic lives in (`epochs_published`, `ENABLED`).
    pub field: String,
    /// Method name (`store`, `fetch_add`, …).
    pub method: String,
    /// 1-based line.
    pub line: u32,
    /// `Ordering::X` names found in the arguments.
    pub orderings: Vec<String>,
    /// Store-class access (store or RMW).
    pub store_class: bool,
    /// Load-class access (load or RMW).
    pub load_class: bool,
}

/// Everything a rule needs to know about one fn body.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Call sites, in body order.
    pub calls: Vec<CallSite>,
    /// Direct lock acquisitions, in body order.
    pub locks: Vec<LockSite>,
    /// Atomic sites, in body order.
    pub atomics: Vec<AtomicSite>,
    /// `Frame::X` mentions (variant name, line).
    pub frames: Vec<(String, u32)>,
    /// `op::X` / `opcodes::X` mentions (const name, line).
    pub opcodes: Vec<(String, u32)>,
    /// All identifier texts mentioned (for coarse containment checks
    /// such as "body mentions `EpochCommit`").
    pub idents: Vec<String>,
}

/// True if the body span `[start, end]` around `i` contains a `let`
/// between the previous statement boundary and `i` — i.e. the value at
/// `i` is let-bound.
fn is_let_bound(toks: &[Tok], start: usize, i: usize) -> bool {
    let mut j = i;
    while j > start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("let") {
            return true;
        }
    }
    false
}

/// Token index of the `}` closing the innermost block containing `i`
/// (clamped to `end`).
fn enclosing_block_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j <= end && j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

/// End of the statement containing `i`: the next top-level `;`, or —
/// when a block opens first (loop/if header) — the end of that block,
/// or the `}` that closes the surrounding block (expression tail).
fn stmt_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = i;
    while j <= end && j < toks.len() {
        let t = &toks[j];
        if t.kind == Kind::Punct {
            match t.text.as_bytes()[0] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b';' if paren == 0 && bracket == 0 => return j,
                b'{' if paren == 0 && bracket == 0 => return match_brace(toks, j).min(end),
                b'}' if paren == 0 && bracket == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

/// Resolves the receiver name of a method call: the ident before the
/// `.` at `dot`, walking back over one balanced `()` group if present
/// (`io::stdin().lock()` → `stdin`).
fn receiver_name(toks: &[Tok], dot: usize) -> String {
    if dot == 0 {
        return "<expr>".into();
    }
    let mut j = dot - 1;
    if toks[j].is_punct(')') {
        // Walk back to the matching `(` and take the ident before it.
        let mut depth = 0i32;
        loop {
            let t = &toks[j];
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return "<expr>".into();
            }
            j -= 1;
        }
        if j == 0 {
            return "<expr>".into();
        }
        j -= 1;
    }
    if toks[j].kind == Kind::Ident {
        toks[j].text.clone()
    } else {
        "<expr>".into()
    }
}

/// Extracts [`FnFacts`] from the token span `[start, end]` (inclusive of
/// both body braces) of one fn.
pub fn extract(toks: &[Tok], start: usize, end: usize) -> FnFacts {
    let mut facts = FnFacts::default();
    let mut i = start;
    while i <= end && i < toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            i += 1;
            continue;
        }
        facts.idents.push(t.text.clone());
        let after_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_is_paren = i < end && i + 1 < toks.len() && toks[i + 1].is_punct('(');

        // Frame:: / op:: / opcodes:: path mentions.
        if (t.text == "Frame" || t.text == "op" || t.text == "opcodes")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == Kind::Ident
        {
            let entry = (toks[i + 3].text.clone(), t.line);
            if t.text == "Frame" {
                facts.frames.push(entry);
            } else {
                facts.opcodes.push(entry);
            }
        }

        if next_is_paren {
            let close = match_paren(toks, i + 1);
            // Lock acquisition: `<recv>.lock()`.
            if t.text == "lock" && after_dot {
                let name = receiver_name(toks, i - 1);
                let held_to = if is_let_bound(toks, start, i) {
                    enclosing_block_end(toks, i, end)
                } else {
                    stmt_end(toks, i, end)
                };
                facts.locks.push(LockSite {
                    name,
                    line: t.line,
                    tok: i,
                    held_to,
                });
            }
            // Atomic site: `<field>.store(v, Ordering::X)` etc. Only
            // counted when an `Ordering::` path appears in the args —
            // that is what separates atomics from e.g. `Vec::store`.
            if after_dot {
                if let Some(&(_, st, ld)) = ATOMIC_METHODS.iter().find(|(m, _, _)| *m == t.text) {
                    let mut orderings = Vec::new();
                    let mut k = i + 2;
                    while k + 3 <= close {
                        if toks[k].is_ident("Ordering")
                            && toks[k + 1].is_punct(':')
                            && toks[k + 2].is_punct(':')
                            && toks[k + 3].kind == Kind::Ident
                        {
                            orderings.push(toks[k + 3].text.clone());
                            k += 4;
                            continue;
                        }
                        k += 1;
                    }
                    if !orderings.is_empty() {
                        facts.atomics.push(AtomicSite {
                            field: receiver_name(toks, i - 1),
                            method: t.text.clone(),
                            line: t.line,
                            orderings,
                            store_class: st,
                            load_class: ld,
                        });
                    }
                }
            }
            // Call site: any non-keyword ident followed by `(` that is
            // not a macro (`name!(…)` has a `!` between) and not the
            // `fn` name itself (previous token `fn`).
            let is_def = i > 0 && toks[i - 1].is_ident("fn");
            if !is_def && !CALLISH_KEYWORDS.contains(&t.text.as_str()) {
                facts.calls.push(CallSite {
                    name: t.text.clone(),
                    line: t.line,
                    tok: i,
                });
            }
        }
        i += 1;
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;

    fn facts_of(body: &str) -> (Vec<Tok>, FnFacts) {
        let toks = lex(body);
        let f = extract(&toks, 0, toks.len() - 1);
        (toks, f)
    }

    #[test]
    fn let_bound_guard_held_to_block_end() {
        let (toks, f) = facts_of("{ let g = m.lock().unwrap(); touch(); }");
        assert_eq!(f.locks.len(), 1);
        let end = f.locks[0].held_to;
        assert!(toks[end].is_punct('}'), "held to the closing brace");
        // The `touch` call is inside the held range.
        let call = f.calls.iter().find(|c| c.name == "touch").expect("touch");
        assert!(call.tok < end);
    }

    #[test]
    fn temporary_guard_held_to_statement_end() {
        let (toks, f) = facts_of("{ m.lock().unwrap().n += 1; after(); }");
        assert_eq!(f.locks.len(), 1);
        assert!(toks[f.locks[0].held_to].is_punct(';'));
        let after = f.calls.iter().find(|c| c.name == "after").expect("after");
        assert!(after.tok > f.locks[0].held_to, "released before after()");
    }

    #[test]
    fn loop_header_guard_held_through_body() {
        let (toks, f) = facts_of("{ for line in stdin.lock().lines() { use_it(); } done(); }");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].name, "stdin");
        let end = f.locks[0].held_to;
        assert!(toks[end].is_punct('}'));
        let use_it = f.calls.iter().find(|c| c.name == "use_it").expect("use_it");
        let done = f.calls.iter().find(|c| c.name == "done").expect("done");
        assert!(use_it.tok < end, "held through the loop body");
        assert!(done.tok > end, "released after the loop");
    }

    #[test]
    fn atomics_require_an_ordering_and_classify() {
        let (_, f) = facts_of(
            "{ self.n.store(1, Ordering::Release); self.n.load(Ordering::Acquire); v.store(x); }",
        );
        assert_eq!(f.atomics.len(), 2, "v.store(x) has no Ordering");
        assert!(f.atomics[0].store_class && !f.atomics[0].load_class);
        assert_eq!(f.atomics[0].orderings, vec!["Release"]);
        assert_eq!(f.atomics[1].field, "n");
        assert!(f.atomics[1].load_class);
    }

    #[test]
    fn rmw_is_both_classes_and_cas_collects_both_orderings() {
        let (_, f) = facts_of("{ c.compare_exchange(a, b, Ordering::AcqRel, Ordering::Relaxed); }");
        assert_eq!(f.atomics.len(), 1);
        let a = &f.atomics[0];
        assert!(a.store_class && a.load_class);
        assert_eq!(a.orderings, vec!["AcqRel", "Relaxed"]);
    }

    #[test]
    fn frames_and_ops() {
        let (_, f) = facts_of("{ match fr { Frame::Seal { epoch } => op::SEAL, _ => op::ACK, }; }");
        assert_eq!(f.frames, vec![("Seal".into(), 1)]);
        assert_eq!(f.opcodes.len(), 2);
    }

    #[test]
    fn macros_are_not_calls() {
        let (_, f) = facts_of("{ println!(\"{}\", x); real(); }");
        assert!(f.calls.iter().all(|c| c.name != "println"));
        assert!(f.calls.iter().any(|c| c.name == "real"));
    }
}
