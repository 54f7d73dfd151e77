//! Item-level parsing: function tables over the token stream.
//!
//! Walks a lexed file and extracts every `fn` item — name, line, source
//! file, parameter names, body token span — while tracking `#[cfg(test)]`
//! module regions and `#[test]` attributes so rules can exclude test-only
//! code. This is deliberately not a grammar: it tracks brace/paren/angle
//! depth and a handful of keyword patterns, which is exactly enough for
//! files rustc already accepted.

use super::lexer::{Kind, Tok};

/// One source file in the analyzed set, already lexed.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (`crates/stream/src/epoch.rs`).
    pub rel: String,
    /// Owning crate short name (`stream`, `serve`, …).
    pub krate: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// The file's text: token rules quote the offending line, and R1
    /// reads its `// ordering:` comments, which the lexer drops.
    pub text: String,
    /// True for files under a `tests/` directory (integration tests).
    pub is_test_file: bool,
}

/// One `fn` item found in a [`SourceFile`].
#[derive(Debug)]
pub struct FnItem {
    /// Function name (unqualified — method and free-fn names collide by
    /// design; the call graph is conservative over name matches).
    pub name: String,
    /// Index into the source set's file table.
    pub file: usize,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// True when this fn is test-only (`#[test]`, inside `#[cfg(test)]
    /// mod`, or in an integration-test file).
    pub is_test: bool,
    /// Token span `[open_brace, close_brace]` of the body, if any.
    pub body: Option<(usize, usize)>,
}

/// Returns the index of the `}` matching the `{` at `open`, or the last
/// token index if unmatched.
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[open..].iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return open + off;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Returns the index of the `)` matching the `(` at `open`.
pub fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[open..].iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return open + off;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Skips a generic parameter list starting at a `<` token; returns the
/// index just past the matching `>`. `->` arrows inside `Fn() -> T`
/// bounds do not close the list.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = i > 0 && toks[i - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    i
}

/// Parses every `fn` item in `sf` (which has file-table index
/// `file_idx`), tracking test regions.
pub fn parse_fns(sf: &SourceFile, file_idx: usize) -> Vec<FnItem> {
    let toks = &sf.toks;
    let mut fns = Vec::new();
    let mut depth = 0i32;
    let mut test_mods: Vec<i32> = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            // Attribute: `#[...]` records its idents; `#![...]` is inner
            // and ignored.
            let inner = i + 1 < toks.len() && toks[i + 1].is_punct('!');
            let open = i + if inner { 2 } else { 1 };
            if open < toks.len() && toks[open].is_punct('[') {
                let mut bdepth = 0i32;
                let mut j = open;
                while j < toks.len() {
                    if toks[j].is_punct('[') {
                        bdepth += 1;
                    } else if toks[j].is_punct(']') {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    } else if !inner && toks[j].kind == Kind::Ident {
                        pending_attrs.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            pending_attrs.clear();
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            if test_mods.last() == Some(&depth) {
                test_mods.pop();
            }
            pending_attrs.clear();
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            pending_attrs.clear();
            i += 1;
            continue;
        }
        if t.is_ident("mod") {
            let cfg_test = pending_attrs.iter().any(|a| a == "cfg")
                && pending_attrs.iter().any(|a| a == "test");
            if cfg_test && i + 2 < toks.len() && toks[i + 2].is_punct('{') {
                test_mods.push(depth);
            }
            pending_attrs.clear();
            i += 1;
            continue;
        }
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == Kind::Ident {
            let name_idx = i + 1;
            let is_test = sf.is_test_file
                || !test_mods.is_empty()
                || pending_attrs.iter().any(|a| a == "test");
            pending_attrs.clear();
            let mut j = name_idx + 1;
            if j < toks.len() && toks[j].is_punct('<') {
                j = skip_generics(toks, j);
            }
            // Find the parameter list.
            while j < toks.len() && !toks[j].is_punct('(') {
                j += 1;
            }
            if j >= toks.len() {
                break;
            }
            let pend = match_paren(toks, j);
            // Find the body `{` or a `;` (trait method without default).
            let mut k = pend + 1;
            let mut bracket = 0i32;
            let mut body = None;
            while k < toks.len() {
                let tk = &toks[k];
                if tk.is_punct('[') {
                    bracket += 1;
                } else if tk.is_punct(']') {
                    bracket -= 1;
                } else if tk.is_punct('<') {
                    // `-> Result<(), E>` — skip so a `;`-free generic
                    // can't confuse the scan (no `;` appears in generics
                    // anyway, but `{` can via `Fn() -> T` closures? no —
                    // keep it simple and only skip balanced angles).
                    k = skip_generics(toks, k);
                    continue;
                } else if tk.is_punct(';') && bracket == 0 {
                    break;
                } else if tk.is_punct('{') {
                    body = Some((k, match_brace(toks, k)));
                    break;
                }
                k += 1;
            }
            fns.push(FnItem {
                name: toks[name_idx].text.clone(),
                file: file_idx,
                line: toks[name_idx].line,
                is_test,
                body,
            });
            // Resume at the body `{` (or past the signature) so nested
            // fns and depth tracking both see the body tokens.
            i = body.map(|(b, _)| b).unwrap_or(k.max(pend + 1));
            continue;
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            toks: lex(src),
            text: src.to_string(),
            is_test_file: false,
        }
    }

    #[test]
    fn finds_fns_with_generics_wheres_and_bodies() {
        let sf = file(
            "pub fn a<T: Ord, F: Fn() -> u32>(x: T, mut y: F) -> Vec<T> where T: Clone { inner() }\n\
             fn b(&self, n: usize) -> [u8; 4];\n\
             fn c() {}\n",
        );
        let fns = parse_fns(&sf, 0);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_none(), "trait method without default");
    }

    #[test]
    fn cfg_test_mods_and_test_attrs_mark_fns() {
        let sf = file(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn t1() {}\n  fn helper() {}\n}\n\
             #[test]\nfn t2() {}\n\
             fn real2() {}\n",
        );
        let fns = parse_fns(&sf, 0);
        let flags: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("real", false),
                ("t1", true),
                ("helper", true),
                ("t2", true),
                ("real2", false)
            ]
        );
    }

    #[test]
    fn nested_fns_and_impl_methods_are_found() {
        let sf = file(
            "impl Core {\n  fn outer(&self) { fn nested() {} nested(); }\n}\n\
             trait T { fn defaulted(&self) { body(); } }\n",
        );
        let fns = parse_fns(&sf, 0);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "nested", "defaulted"]);
    }

    #[test]
    fn body_spans_match_braces() {
        let sf = file("fn f() { if x { y(); } else { z(); } } fn g() {}");
        let fns = parse_fns(&sf, 0);
        let (b0, e0) = fns[0].body.expect("f has a body");
        assert!(sf.toks[b0].is_punct('{') && sf.toks[e0].is_punct('}'));
        // g's body must start after f's ends.
        let (b1, _) = fns[1].body.expect("g has a body");
        assert!(b1 > e0);
    }
}
