//! cobra-analyze: the one static pass — cross-crate concurrency &
//! protocol analysis plus the source-level invariant rules.
//!
//! A dependency-free pipeline (DESIGN.md §12): [`SourceSet`] reads every
//! `crates/*/{src,tests}` file once, [`lexer`] turns each into tokens,
//! [`items`] extracts the function table, [`facts`] derives per-fn facts
//! (calls, lock acquisitions with held ranges, atomic sites with
//! orderings, frame-tag mentions), [`graph`] builds the name-based call
//! graph and transitive locksets, and the rules consume those:
//!
//! * **R1, R2, R3, R9, R11** ([`rules::token_rules`]) — token-sequence
//!   rules, each over its own path scope: `Ordering::` needs a written
//!   `// ordering:` justification, no `unwrap`/`expect` on the hot
//!   path, no `Mutex` on the binning path, no unaudited `unsafe`, no
//!   blocking socket I/O on the reactor path.
//! * **R5** ([`graph::r5_lock_order`]) — no cycles in the lock
//!   acquisition-order graph.
//! * **R6** ([`rules::r6_commit_before_publish`]) — a WAL commit-class
//!   call dominates every snapshot publish.
//! * **R7** ([`rules::r7_wire_exhaustiveness`]) — every row of the
//!   wire protocol's `frames!` table has a server dispatch site, a
//!   client method, and a test (the row itself is the codec).
//! * **R8** ([`rules::r8_atomics_pairing`]) — Release-class stores and
//!   Acquire-class loads pair up per field, workspace-wide.
//!
//! Findings can be suppressed only via `crates/check/allow.txt`
//! (`RULE | path-suffix | message-needle`, so an entry audited for one
//! rule never hides another rule's finding on the same line); unused
//! entries are themselves findings (R10 `stale-allow`), so suppressions
//! cannot rot. [`selftest`] seeds one mutation per rule and asserts it
//! fires.

pub mod facts;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod selftest;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use items::{FnItem, SourceFile};

/// Relative path of the one allowlist, shared by every rule.
pub const ALLOW_FILE: &str = "crates/check/allow.txt";

/// Relative path of the JSON findings report.
pub const REPORT_FILE: &str = "target/analyze-report.json";

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`R1`…`R11`, or `stale-allow`).
    pub rule: &'static str,
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The raw text of every analyzed file. Selftests clone this, mutate
/// one file's text, and re-run the full pipeline — mutated text only
/// has to lex, not compile.
#[derive(Debug, Clone)]
pub struct SourceSet {
    /// `(workspace-relative path, file text)`, sorted by path.
    pub texts: Vec<(String, String)>,
}

impl SourceSet {
    /// Loads every `.rs` file under each `crates/*/{src,tests}` of the
    /// workspace at `root`. The crate set is the directory listing, so a
    /// new crate is analyzed the day it lands. `check` itself is in the
    /// set: the lexer drops the orderings and lock calls its fixtures and
    /// rule tables quote as string data.
    pub fn load(root: &Path) -> io::Result<SourceSet> {
        let mut texts = Vec::new();
        for entry in fs::read_dir(root.join("crates"))? {
            let krate = entry?.path();
            for sub in ["src", "tests"] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    collect_rs(root, &dir, &mut texts)?;
                }
            }
        }
        texts.sort();
        Ok(SourceSet { texts })
    }

    /// Replaces `needle` with `replacement` in the file whose path ends
    /// with `path_suffix`. Panics if the file or needle is missing —
    /// a selftest mutation that no longer applies must fail loudly.
    pub fn mutate(&mut self, path_suffix: &str, needle: &str, replacement: &str) {
        let entry = self
            .texts
            .iter_mut()
            .find(|(p, _)| p.ends_with(path_suffix))
            .unwrap_or_else(|| panic!("mutation target {path_suffix} not in source set"));
        assert!(
            entry.1.contains(needle),
            "mutation needle not found in {path_suffix}: {needle}"
        );
        entry.1 = entry.1.replacen(needle, replacement, 1);
    }

    /// Appends `text` to the file whose path ends with `path_suffix`.
    pub fn append(&mut self, path_suffix: &str, text: &str) {
        let entry = self
            .texts
            .iter_mut()
            .find(|(p, _)| p.ends_with(path_suffix))
            .unwrap_or_else(|| panic!("append target {path_suffix} not in source set"));
        entry.1.push_str(text);
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            out.push((rel.replace('\\', "/"), fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from the current directory
/// until a `Cargo.toml` declaring `[workspace]` is found.
pub fn find_workspace_root() -> io::Result<PathBuf> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() && fs::read_to_string(&manifest)?.contains("[workspace]") {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace Cargo.toml above the current directory",
            ));
        }
    }
}

/// The analyzed workspace: lexed files, function table, per-fn facts,
/// and the name → candidate-callee index.
pub struct Workspace {
    /// Lexed files.
    pub files: Vec<SourceFile>,
    /// All fns, in file order.
    pub fns: Vec<FnItem>,
    /// Facts for each fn (empty when it has no body).
    pub facts: Vec<facts::FnFacts>,
    /// Callee candidates: name → indices of non-test fns with bodies.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Lexes and parses a [`SourceSet`] into an analyzable workspace.
    pub fn build(set: &SourceSet) -> Workspace {
        let files: Vec<SourceFile> = set
            .texts
            .iter()
            .map(|(rel, text)| {
                let parts: Vec<&str> = rel.split('/').collect();
                SourceFile {
                    rel: rel.clone(),
                    krate: parts.get(1).unwrap_or(&"?").to_string(),
                    toks: lexer::lex(text),
                    text: text.clone(),
                    is_test_file: parts.contains(&"tests"),
                }
            })
            .collect();
        let mut fns = Vec::new();
        for (fi, sf) in files.iter().enumerate() {
            fns.extend(items::parse_fns(sf, fi));
        }
        let facts: Vec<facts::FnFacts> = fns
            .iter()
            .map(|f| match f.body {
                Some((start, end)) => facts::extract(&files[f.file].toks, start, end),
                None => facts::FnFacts::default(),
            })
            .collect();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.is_test && f.body.is_some() {
                by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        Workspace {
            files,
            fns,
            facts,
            by_name,
        }
    }
}

/// One parsed allowlist entry: `RULE | path-suffix | message-needle`.
#[derive(Debug)]
pub struct AllowEntry {
    /// Rule id the entry applies to.
    pub rule: String,
    /// Finding-file suffix to match.
    pub suffix: String,
    /// Substring of the finding message to match.
    pub needle: String,
    /// 1-based line in the allowlist file.
    pub line: u32,
    /// Set when the entry suppressed at least one finding.
    pub used: bool,
}

/// The analyzer allowlist.
#[derive(Debug, Default)]
pub struct AllowList {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl AllowList {
    /// Parses allowlist text (missing file → empty list).
    pub fn parse(text: &str) -> AllowList {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '|').map(str::trim);
            if let (Some(rule), Some(suffix), Some(needle)) =
                (parts.next(), parts.next(), parts.next())
            {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    suffix: suffix.to_string(),
                    needle: needle.to_string(),
                    line: (i + 1) as u32,
                    used: false,
                });
            }
        }
        AllowList { entries }
    }

    /// Drops findings matched by an entry (marking it used); returns
    /// the survivors.
    pub fn filter(&mut self, findings: Vec<Finding>) -> Vec<Finding> {
        findings
            .into_iter()
            .filter(|f| {
                for e in self.entries.iter_mut() {
                    if e.rule == f.rule
                        && f.file.ends_with(&e.suffix)
                        && f.message.contains(&e.needle)
                    {
                        e.used = true;
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    /// Findings for entries that suppressed nothing this run.
    pub fn stale_findings(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|e| !e.used)
            .map(|e| Finding {
                rule: "stale-allow",
                file: ALLOW_FILE.to_string(),
                line: e.line,
                message: format!(
                    "allowlist entry `{} | {} | {}` matched no finding — remove it",
                    e.rule, e.suffix, e.needle
                ),
            })
            .collect()
    }
}

/// Aggregate counters for the report.
#[derive(Debug, Default)]
pub struct Stats {
    /// Files analyzed.
    pub files: usize,
    /// Functions parsed.
    pub fns: usize,
    /// Call sites extracted.
    pub calls: usize,
    /// Lock acquisition sites.
    pub locks: usize,
    /// Atomic operation sites.
    pub atomics: usize,
    /// Lock acquisition-order edges.
    pub lock_edges: usize,
    /// Wall-clock for the full pass, milliseconds.
    pub elapsed_ms: u128,
}

/// Result of a full analysis pass.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by (file, line,
    /// rule).
    pub findings: Vec<Finding>,
    /// Counters.
    pub stats: Stats,
    /// Allowlist entries that suppressed at least one finding.
    pub allow_used: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over an already-built source set with the given
/// allowlist. This is the core used by both the CLI and the selftests.
pub fn analyze_set(set: &SourceSet, allow: &mut AllowList) -> Report {
    let start = Instant::now();
    let ws = Workspace::build(set);
    let mut findings = rules::token_rules(&ws);
    let (r5, lock_edges) = graph::r5_lock_order(&ws);
    findings.extend(r5);
    findings.extend(rules::r6_commit_before_publish(&ws));
    findings.extend(rules::r7_wire_exhaustiveness(&ws));
    findings.extend(rules::r8_atomics_pairing(&ws));
    let mut findings = allow.filter(findings);
    findings.extend(allow.stale_findings());
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    // A fn nested inside another fn's body is extracted for both; drop
    // the duplicated sites.
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });
    let stats = Stats {
        files: ws.files.len(),
        fns: ws.fns.len(),
        calls: ws.facts.iter().map(|f| f.calls.len()).sum(),
        locks: ws.facts.iter().map(|f| f.locks.len()).sum(),
        atomics: ws.facts.iter().map(|f| f.atomics.len()).sum(),
        lock_edges,
        elapsed_ms: start.elapsed().as_millis(),
    };
    let allow_used = allow.entries.iter().filter(|e| e.used).count();
    Report {
        findings,
        stats,
        allow_used,
    }
}

/// Loads the workspace sources and allowlist from `root` and runs the
/// full analysis.
pub fn run_analysis(root: &Path) -> io::Result<Report> {
    let set = SourceSet::load(root)?;
    let allow_text = fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default();
    let mut allow = AllowList::parse(&allow_text);
    Ok(analyze_set(&set, &mut allow))
}

/// Escapes a string for JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report consumed by CI.
pub fn report_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"cobra-analyze\",\n");
    out.push_str(
        "  \"rules\": [\"R1\", \"R2\", \"R3\", \"R5\", \"R6\", \"R7\", \"R8\", \"R9\", \
         \"R11\", \"stale-allow\"],\n",
    );
    out.push_str(&format!(
        "  \"stats\": {{\"files\": {}, \"functions\": {}, \"calls\": {}, \"locks\": {}, \
         \"atomics\": {}, \"lock_edges\": {}, \"elapsed_ms\": {}}},\n",
        report.stats.files,
        report.stats.fns,
        report.stats.calls,
        report.stats.locks,
        report.stats.atomics,
        report.stats.lock_edges,
        report.stats.elapsed_ms,
    ));
    out.push_str(&format!(
        "  \"allow_entries_used\": {},\n",
        report.allow_used
    ));
    out.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the JSON report under `root` ([`REPORT_FILE`]), creating
/// `target/` if needed.
pub fn write_report(root: &Path, report: &Report) -> io::Result<()> {
    let path = root.join(REPORT_FILE);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, report_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(files: &[(&str, &str)]) -> SourceSet {
        SourceSet {
            texts: files
                .iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect(),
        }
    }

    /// `(rule, file, line)` of the token-rule and stale-allow findings
    /// of a full pass (a snippet set trips R6/R7's "file not found").
    fn findings(set: &SourceSet, allow: &str) -> Vec<(&'static str, String, u32)> {
        analyze_set(set, &mut AllowList::parse(allow))
            .findings
            .into_iter()
            .filter(|f| !matches!(f.rule, "R6" | "R7"))
            .map(|f| (f.rule, f.file, f.line))
            .collect()
    }

    #[test]
    fn an_allow_entry_suppresses_only_its_own_rule() {
        // One line, two findings: an audited lock-poisoning `expect`
        // (R2) and an unjustified ordering (R1). The R2 entry must not
        // hide the R1 finding.
        let src =
            "fn f() { m.lock().expect(\"seal lock poisoned\").store(1, Ordering::Relaxed); }\n";
        let file = "crates/stream/src/pipeline.rs";
        let s = set(&[(file, src)]);
        assert_eq!(
            findings(&s, ""),
            vec![("R1", file.to_string(), 1), ("R2", file.to_string(), 1)]
        );
        let allow = "R2 | crates/stream/src/pipeline.rs | expect(\"seal lock poisoned\")\n";
        assert_eq!(findings(&s, allow), vec![("R1", file.to_string(), 1)]);
    }

    #[test]
    fn allow_entries_match_by_suffix_and_needle_and_stale_ones_are_findings() {
        let file = "crates/pb/src/parallel.rs";
        let s = set(&[(
            file,
            "fn f() {\n    let b = h.join().expect(\"binning worker panicked\");\n    \
             let c = h.join().expect(\"other\");\n}\n",
        )]);
        let allow = "# comment\n\nR2 | pb/src/parallel.rs | binning worker panicked\n\
                     R2 | crates/wal/src/log.rs | never matches\n";
        // Line 2 is suppressed, line 3's needle differs, and the entry
        // that suppressed nothing fires at its own allowlist line
        // (numbering survives the comment and the blank).
        assert_eq!(
            findings(&s, allow),
            vec![
                ("stale-allow", ALLOW_FILE.to_string(), 4),
                ("R2", file.to_string(), 3)
            ]
        );
    }

    #[test]
    fn findings_are_sorted_by_path_then_line() {
        let two = "fn f() {\n    x.unwrap();\n    y.unwrap();\n}\n";
        let s = set(&[("crates/pb/src/b.rs", two), ("crates/pb/src/a.rs", two)]);
        let order: Vec<(String, u32)> = findings(&s, "")
            .into_iter()
            .map(|(_, f, l)| (f, l))
            .collect();
        let want = [("a.rs", 2), ("a.rs", 3), ("b.rs", 2), ("b.rs", 3)]
            .map(|(f, l)| (format!("crates/pb/src/{f}"), l));
        assert_eq!(order, want);
    }
}
