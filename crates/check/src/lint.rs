//! Invariant linting for the PB/stream stack.
//!
//! Rules, each tuned to a failure mode this codebase has actually
//! worried about:
//!
//! * **R1 `ordering-justification`** — every `Ordering::…` use in the
//!   concurrency-protocol files must carry a `// ordering:` comment (same
//!   line, or in the comment block directly above the statement)
//!   explaining why that ordering is sufficient. Atomics without a
//!   written-down argument rot.
//! * **R2 `no-hot-path-unwrap`** — no `unwrap()` / `expect()` in the
//!   hot-path crates (`pb`, `core`, `stream`, `sim`, `serve`, `wal`)
//!   outside `#[cfg(test)]` modules. Panics in a binning worker poison
//!   locks and wedge the pipeline, and a panic on the WAL path turns a
//!   disk hiccup into an outage; fallible paths must return errors or
//!   document why the panic is unreachable via the allowlist.
//! * **R3 `no-mutex-on-binning-path`** — no `std::sync::Mutex` in the
//!   binning/accumulate hot-path files. The whole point of propagation
//!   blocking is that bin ownership makes locks unnecessary there.
//! * **R9 `no-unaudited-unsafe`** — no `unsafe` outside
//!   allowlist-audited sites, anywhere in the workspace, and every
//!   crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) must
//!   carry `#![forbid(unsafe_code)]` (or `deny`) so the compiler
//!   enforces what the lint observes.
//! * **R10 `stale-allow`** — every `lint-allow.txt` entry must still
//!   suppress at least one would-be violation; entries that match
//!   nothing fail the run instead of rotting silently.
//! * **R11 `no-blocking-io-on-reactor-path`** — no blocking socket I/O
//!   (`set_read_timeout`, `set_nonblocking(false)`, `.read_exact(`,
//!   `.write_all(`) in the event-loop crates (`serve/src`, `poll/src`).
//!   The reactor's liveness rests on every syscall being non-blocking;
//!   one reinstated blocking read stalls every connection on the loop.
//!   The one audited exception — the blocking `read_frame` /
//!   `write_frame` pair, which only the client calls — lives in the
//!   allowlist.
//!
//! The runner walks the workspace **once**, reads each file once, and
//! applies every rule whose scope covers that file; output is sorted by
//! `path:line` so CI diffs are stable.
//!
//! False positives are suppressed through `crates/check/lint-allow.txt`:
//! one `path-suffix|needle` entry per line; a violation is allowed when
//! the file path ends with `path-suffix` and the offending line contains
//! `needle`.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: `Ordering::` without a `// ordering:` justification.
    OrderingJustification,
    /// R2: `unwrap()` / `expect()` on a hot path.
    HotPathUnwrap,
    /// R3: `Mutex` on a binning hot-path file.
    MutexOnBinningPath,
    /// R9: `unsafe` outside audited sites, or a crate root without
    /// `#![forbid(unsafe_code)]`.
    UnauditedUnsafe,
    /// R10: a `lint-allow.txt` entry that suppresses nothing.
    StaleAllow,
    /// R11: blocking socket I/O in the event-loop crates.
    BlockingIoOnReactorPath,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::OrderingJustification => "ordering-justification",
            Rule::HotPathUnwrap => "no-hot-path-unwrap",
            Rule::MutexOnBinningPath => "no-mutex-on-binning-path",
            Rule::UnauditedUnsafe => "no-unaudited-unsafe",
            Rule::StaleAllow => "stale-allow",
            Rule::BlockingIoOnReactorPath => "no-blocking-io-on-reactor-path",
        };
        f.write_str(s)
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct LintViolation {
    /// Rule that fired.
    pub rule: Rule,
    /// File (workspace-relative when possible).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// An allowlist entry: `path-suffix|needle`.
#[derive(Debug, Clone)]
struct Allow {
    path_suffix: String,
    needle: String,
    /// 1-based line in `lint-allow.txt` (for R10 reporting).
    line: usize,
}

/// Parses `lint-allow.txt` content (`#` comments and blanks ignored).
fn parse_allowlist(text: &str) -> Vec<Allow> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(i, l)| {
            let (path, needle) = l.split_once('|')?;
            Some(Allow {
                path_suffix: path.trim().to_string(),
                needle: needle.trim().to_string(),
                line: i + 1,
            })
        })
        .collect()
}

/// Indices of every allowlist entry matching this violation (all are
/// marked used, so overlapping entries don't read as stale).
fn matching_allows(allows: &[Allow], file: &str, line: &str) -> Vec<usize> {
    allows
        .iter()
        .enumerate()
        .filter(|(_, a)| file.ends_with(&a.path_suffix) && line.contains(&a.needle))
        .map(|(i, _)| i)
        .collect()
}

/// Masks string/char literal contents with spaces so brace tracking and
/// needle matching ignore them. Line-local (multi-line literals are not
/// used in the linted sources); `//` comments are stripped too.
fn mask_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_str {
            if c == '\\' {
                out.push(' ');
                if i + 1 < bytes.len() {
                    out.push(' ');
                    i += 2;
                    continue;
                }
            } else if c == '"' {
                in_str = false;
                out.push('"');
            } else {
                out.push(' ');
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            '\'' => {
                // Char literal like 'a' or '\\n' — mask it. Lifetimes
                // ('a without a closing quote nearby) pass through.
                let rest = &line[i + 1..];
                let close = rest
                    .char_indices()
                    .take(3)
                    .find(|&(j, ch)| ch == '\'' && j > 0)
                    .map(|(j, _)| j);
                if let Some(j) = close {
                    out.push('\'');
                    for _ in 0..j {
                        out.push(' ');
                    }
                    out.push('\'');
                    i += j + 2;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// True when `rel` (workspace-relative, `/`-separated) is subject to R1
/// (atomics must justify their `Ordering`).
fn r1_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/stream/src/")
        || rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/wal/src/")
        || rel == "crates/pb/src/trace.rs"
}

/// True when `rel` is subject to R2 (hot-path crate `src/` file).
fn r2_in_scope(rel: &str) -> bool {
    R2_CRATES
        .iter()
        .any(|k| rel.starts_with(&format!("crates/{k}/src/")))
}

/// True when `rel` is a crate root that must carry
/// `#![forbid(unsafe_code)]` (or `deny`): lib roots, bin roots, and
/// `src/bin/` targets.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"))
}

/// Crates subject to R2.
const R2_CRATES: [&str; 6] = ["pb", "core", "stream", "sim", "serve", "wal"];

/// True when `rel` is subject to R11 (the event-loop crates' `src/`:
/// everything that runs on, or is called from, the reactor thread).
fn r11_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/") || rel.starts_with("crates/poll/src/")
}

/// Blocking-I/O markers R11 hunts for (whitespace-squeezed match).
const R11_NEEDLES: [&str; 4] = [
    "set_read_timeout",
    "set_nonblocking(false)",
    ".read_exact(",
    ".write_all(",
];

/// Files subject to R3 (the binning/accumulate hot path).
const R3_FILES: [&str; 5] = [
    "crates/pb/src/binner.rs",
    "crates/pb/src/parallel.rs",
    "crates/core/src/backend.rs",
    "crates/core/src/cobra.rs",
    "crates/stream/src/shard.rs",
];

fn list_rs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(list_rs(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// R1 over one file's contents.
fn lint_ordering(file: &str, text: &str, out: &mut Vec<LintViolation>) {
    let lines: Vec<&str> = text.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") || trimmed.starts_with("use ") {
            continue;
        }
        if !raw.contains("Ordering::") {
            continue;
        }
        // Same line, or anywhere in the contiguous `//` comment block
        // immediately above the statement.
        let mut justified = raw.contains("// ordering:");
        let mut j = i;
        while !justified && j > 0 {
            j -= 1;
            let above = lines[j].trim_start();
            if !above.starts_with("//") {
                break;
            }
            justified = above.contains("// ordering:");
        }
        if !justified {
            out.push(LintViolation {
                rule: Rule::OrderingJustification,
                file: file.to_string(),
                line: i + 1,
                text: trimmed.trim_end().to_string(),
            });
        }
    }
}

/// R2 over one file's contents. Skips `#[cfg(test)] mod …` blocks by
/// brace tracking on masked lines.
fn lint_unwrap(file: &str, text: &str, out: &mut Vec<LintViolation>) {
    let mut in_test_mod = false;
    let mut depth_at_entry = 0i32;
    let mut depth = 0i32;
    let mut pending_cfg_test = false;
    for (i, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let masked = mask_line(raw);
        if masked.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if !in_test_mod && pending_cfg_test && masked.trim_start().starts_with("mod ") {
            in_test_mod = true;
            depth_at_entry = depth;
            pending_cfg_test = false;
        } else if pending_cfg_test && !masked.trim().is_empty() {
            pending_cfg_test = false;
        }
        for ch in masked.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if in_test_mod {
            if depth <= depth_at_entry {
                in_test_mod = false;
            }
            continue;
        }
        if masked.contains(".unwrap()") || masked.contains(".expect(") {
            out.push(LintViolation {
                rule: Rule::HotPathUnwrap,
                file: file.to_string(),
                line: i + 1,
                text: trimmed.trim_end().to_string(),
            });
        }
    }
}

/// R3 over one file's contents.
fn lint_mutex(file: &str, text: &str, out: &mut Vec<LintViolation>) {
    for (i, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let masked = mask_line(raw);
        if masked.contains("Mutex<") || masked.contains("Mutex::new") {
            out.push(LintViolation {
                rule: Rule::MutexOnBinningPath,
                file: file.to_string(),
                line: i + 1,
                text: trimmed.trim_end().to_string(),
            });
        }
    }
}

/// True when `hay` contains `word` with identifier boundaries on both
/// sides (so `unsafe_code` does not count as `unsafe`).
fn contains_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let p = start + pos;
        let end = p + word.len();
        let before_ok = p == 0 || !is_word(bytes[p - 1]);
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

/// R9 over one file's contents: flags `unsafe` tokens (audited sites go
/// through the allowlist) and crate roots missing the compiler-level
/// `#![forbid(unsafe_code)]` backstop.
fn lint_unsafe(file: &str, text: &str, out: &mut Vec<LintViolation>) {
    for (i, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let masked = mask_line(raw);
        if contains_word(&masked, "unsafe") {
            out.push(LintViolation {
                rule: Rule::UnauditedUnsafe,
                file: file.to_string(),
                line: i + 1,
                text: trimmed.trim_end().to_string(),
            });
        }
    }
    if is_crate_root(file)
        && !text.contains("#![forbid(unsafe_code)]")
        && !text.contains("#![deny(unsafe_code)]")
    {
        out.push(LintViolation {
            rule: Rule::UnauditedUnsafe,
            file: file.to_string(),
            line: 1,
            text: "crate root missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

/// R11 over one file's contents. Whitespace is squeezed out of the
/// masked line before matching so formatting variants of
/// `set_nonblocking( false )` still trip.
fn lint_blocking_io(file: &str, text: &str, out: &mut Vec<LintViolation>) {
    for (i, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let masked: String = mask_line(raw).split_whitespace().collect();
        if R11_NEEDLES.iter().any(|n| masked.contains(n)) {
            out.push(LintViolation {
                rule: Rule::BlockingIoOnReactorPath,
                file: file.to_string(),
                line: i + 1,
                text: trimmed.trim_end().to_string(),
            });
        }
    }
}

/// Self-test hook: a seeded R11 mutation — a blocking read timeout
/// reinstated on the reactor path — must be caught.
pub fn seeded_blocking_io_mutation_is_caught() -> bool {
    let mut out = Vec::new();
    lint_blocking_io(
        "crates/serve/src/server.rs",
        "conn.stream.set_read_timeout(Some(cfg.read_timeout)).ok();\n",
        &mut out,
    );
    out.iter().any(|v| v.rule == Rule::BlockingIoOnReactorPath)
}

/// Relative path of the lint allowlist.
const LINT_ALLOW_FILE: &str = "crates/check/lint-allow.txt";

/// Runs every rule over the workspace rooted at `root`, filtering through
/// the allowlist at `crates/check/lint-allow.txt` (missing file = empty).
///
/// The walk visits each source file exactly once, reads it once, and
/// dispatches every rule whose scope covers it; afterwards R10 turns
/// allowlist entries that suppressed nothing into violations. Output is
/// sorted by `(path, line, rule)` for diffable CI logs.
pub fn run_lints(root: &Path) -> std::io::Result<Vec<LintViolation>> {
    let allow_text = std::fs::read_to_string(root.join(LINT_ALLOW_FILE)).unwrap_or_default();
    let allows = parse_allowlist(&allow_text);
    let mut used = vec![false; allows.len()];
    let mut raw = Vec::new();

    // One walk over every crate's src/ and tests/.
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.is_dir() {
            files.extend(list_rs(&dir.join("src")));
            files.extend(list_rs(&dir.join("tests")));
        }
    }
    files.sort();

    for path in files {
        let file = rel(root, &path);
        let text = std::fs::read_to_string(&path)?;
        if r1_in_scope(&file) {
            lint_ordering(&file, &text, &mut raw);
        }
        if r2_in_scope(&file) {
            lint_unwrap(&file, &text, &mut raw);
        }
        if R3_FILES.contains(&file.as_str()) {
            lint_mutex(&file, &text, &mut raw);
        }
        if r11_in_scope(&file) {
            lint_blocking_io(&file, &text, &mut raw);
        }
        lint_unsafe(&file, &text, &mut raw);
    }

    Ok(apply_allowlist(raw, &allows, &mut used))
}

/// Filters `raw` through the allowlist, appends R10 violations for
/// entries that suppressed nothing, and sorts for stable CI output.
fn apply_allowlist(
    raw: Vec<LintViolation>,
    allows: &[Allow],
    used: &mut [bool],
) -> Vec<LintViolation> {
    let mut kept: Vec<LintViolation> = raw
        .into_iter()
        .filter(|v| {
            let matches = matching_allows(allows, &v.file, &v.text);
            for ix in &matches {
                used[*ix] = true;
            }
            matches.is_empty()
        })
        .collect();
    for (ix, a) in allows.iter().enumerate() {
        if !used[ix] {
            kept.push(LintViolation {
                rule: Rule::StaleAllow,
                file: LINT_ALLOW_FILE.to_string(),
                line: a.line,
                text: format!(
                    "entry `{} | {}` suppressed nothing — remove it",
                    a.path_suffix, a.needle
                ),
            });
        }
    }
    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line)
            .cmp(&(b.file.as_str(), b.line))
            .then_with(|| a.rule.to_string().cmp(&b.rule.to_string()))
    });
    kept
}

/// Locates the workspace root by walking up from the current directory
/// until a `Cargo.toml` declaring `[workspace]` is found.
pub fn find_workspace_root() -> std::io::Result<PathBuf> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no workspace Cargo.toml above the current directory",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_without_comment_is_flagged() {
        let src = "let x = a.load(Ordering::Relaxed);\n";
        let mut out = Vec::new();
        lint_ordering("f.rs", src, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::OrderingJustification);
    }

    #[test]
    fn ordering_with_trailing_or_preceding_comment_passes() {
        let src = "\
let x = a.load(Ordering::Relaxed); // ordering: stats only
// ordering: release pairs with the acquire in recv
// (two-line justification is fine)
let y = b.store(1, Ordering::Release);
use std::sync::atomic::Ordering;
";
        let mut out = Vec::new();
        lint_ordering("f.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_outside_tests_is_flagged_inside_tests_is_not() {
        let src = "\
fn hot() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.expect(\"fine in tests\"); }
}
fn also_hot() { z.expect(\"bad\"); }
";
        let mut out = Vec::new();
        lint_unwrap("f.rs", src, &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 6], "{out:?}");
    }

    #[test]
    fn unwrap_inside_string_literal_is_ignored() {
        let src = "let s = \"docs mention .unwrap() here\";\n";
        let mut out = Vec::new();
        lint_unwrap("f.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn mutex_is_flagged_on_hot_path() {
        let src = "let m: Mutex<u32> = Mutex::new(0);\n";
        let mut out = Vec::new();
        lint_mutex("crates/pb/src/binner.rs", src, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::MutexOnBinningPath);
    }

    #[test]
    fn allowlist_suppresses_matching_entries() {
        let allows =
            parse_allowlist("# comment\n\ncrates/pb/src/parallel.rs | binning worker panicked\n");
        assert_eq!(
            allows[0].line, 3,
            "line numbers survive comment/blank lines"
        );
        assert_eq!(
            matching_allows(
                &allows,
                "crates/pb/src/parallel.rs",
                "let b = h.join().expect(\"binning worker panicked\");",
            ),
            vec![0]
        );
        assert!(matching_allows(
            &allows,
            "crates/pb/src/parallel.rs",
            "let b = h.join().expect(\"other\");",
        )
        .is_empty());
    }

    #[test]
    fn unsafe_outside_strings_is_flagged() {
        let word = "un\u{73}afe"; // assembled so this file stays R9-clean
        let src = format!(
            "fn f() {{ {word} {{ x }} }}\nlet s = \"{word} in a string\";\n// {word} in a comment\n"
        );
        let mut out = Vec::new();
        lint_unsafe("crates/pb/src/lib.rs", &src, &mut out);
        // Line 1 fires; the string and comment lines do not. The missing
        // crate-root attribute also fires (synthetic line 1 entry).
        let real: Vec<usize> = out
            .iter()
            .filter(|v| !v.text.contains("crate root"))
            .map(|v| v.line)
            .collect();
        assert_eq!(real, vec![1], "{out:?}");
        assert!(
            out.iter().any(|v| v.text.contains("crate root")),
            "missing forbid(unsafe_code) attribute must be flagged: {out:?}"
        );
    }

    #[test]
    fn crate_root_with_forbid_attribute_passes() {
        let src = "#![forbid(unsafe_code)]\nfn main() {}\n";
        let mut out = Vec::new();
        lint_unsafe("crates/bench/src/bin/fig99.rs", src, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Non-root files don't need the attribute at all.
        let mut out2 = Vec::new();
        lint_unsafe("crates/pb/src/binner.rs", "fn f() {}\n", &mut out2);
        assert!(out2.is_empty(), "{out2:?}");
    }

    #[test]
    fn unsafe_code_ident_is_not_the_unsafe_keyword() {
        assert!(!contains_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(contains_word("pub fn f() { un\u{73}afe { } }", "unsafe"));
    }

    #[test]
    fn blocking_io_on_reactor_path_is_flagged() {
        let src = "\
stream.set_read_timeout(Some(t))?;
sock.set_nonblocking( false )?;
r.read_exact(&mut buf)?;
w.write_all(&bytes)?;
sock.set_nonblocking(true)?;
// comment: w.write_all(&bytes) is fine here
let s = \"docs mention write_all( here\";
";
        let mut out = Vec::new();
        lint_blocking_io("crates/serve/src/server.rs", src, &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4], "{out:?}");
        assert!(out.iter().all(|v| v.rule == Rule::BlockingIoOnReactorPath));
    }

    #[test]
    fn blocking_io_scope_covers_serve_and_poll_src_only() {
        assert!(r11_in_scope("crates/serve/src/server.rs"));
        assert!(r11_in_scope("crates/poll/src/sys_epoll.rs"));
        // Clients of the server running on their own threads (tests,
        // benches, other crates) may block freely.
        assert!(!r11_in_scope("crates/serve/tests/e2e.rs"));
        assert!(!r11_in_scope("crates/bench/src/bin/serve_loadgen.rs"));
        assert!(!r11_in_scope("crates/cluster/src/replicate.rs"));
    }

    #[test]
    fn seeded_r11_mutation_is_caught() {
        assert!(seeded_blocking_io_mutation_is_caught());
    }

    #[test]
    fn stale_allow_entries_become_violations_and_used_ones_do_not() {
        let allows = parse_allowlist(
            "crates/pb/src/parallel.rs | worker panicked\ncrates/wal/src/log.rs | never matches\n",
        );
        let raw = vec![LintViolation {
            rule: Rule::HotPathUnwrap,
            file: "crates/pb/src/parallel.rs".into(),
            line: 10,
            text: "h.join().expect(\"worker panicked\")".into(),
        }];
        let mut used = vec![false; allows.len()];
        let out = apply_allowlist(raw, &allows, &mut used);
        // The real violation is suppressed; the unused entry fires R10.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::StaleAllow);
        assert_eq!(out[0].line, 2, "points at the stale allowlist line");
        assert!(out[0].text.contains("never matches"));
    }

    #[test]
    fn output_is_sorted_by_path_then_line() {
        let mk = |file: &str, line: usize| LintViolation {
            rule: Rule::HotPathUnwrap,
            file: file.into(),
            line,
            text: "x.unwrap()".into(),
        };
        let out = apply_allowlist(
            vec![mk("b.rs", 2), mk("a.rs", 9), mk("a.rs", 3)],
            &[],
            &mut [],
        );
        let order: Vec<(String, usize)> = out.iter().map(|v| (v.file.clone(), v.line)).collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 3), ("a.rs".into(), 9), ("b.rs".into(), 2)]
        );
    }
}
