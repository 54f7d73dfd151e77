//! End-to-end: cobra-analyze (every static rule, R1–R11) over the real
//! workspace must be clean, fast, and produce a sane machine-readable
//! report.

use cobra_check::analyze;

#[test]
fn workspace_analyzes_clean_with_sane_stats() {
    let root = analyze::find_workspace_root().expect("workspace root");
    let report = analyze::run_analysis(&root).expect("analysis runs");
    assert!(
        report.is_clean(),
        "workspace must analyze clean:\n{:#?}",
        report.findings
    );
    // Structural sanity: the analyzer actually saw the workspace.
    assert!(report.stats.files > 50, "files: {}", report.stats.files);
    assert!(report.stats.fns > 500, "fns: {}", report.stats.fns);
    assert!(report.stats.calls > 2000, "calls: {}", report.stats.calls);
    // The workspace has real locks and atomics to reason about. The
    // file set is the `crates/` listing: a crate silently leaving it
    // (the subscription hub alone holds a third of the lock sites)
    // drops below these floors (122 files since the paper's 15 figure
    // binaries became one `repro`).
    assert!(report.stats.files >= 120, "files: {}", report.stats.files);
    assert!(report.stats.locks >= 30, "locks: {}", report.stats.locks);
    assert!(
        report.stats.atomics >= 90,
        "atomics: {}",
        report.stats.atomics
    );
    assert!(
        report.stats.lock_edges >= 8,
        "edges: {}",
        report.stats.lock_edges
    );
    // Every audited allowlist entry is load-bearing: stale-allow would
    // have fired above, and the used count is the file's own rule lines.
    let allow_text = std::fs::read_to_string(root.join(analyze::ALLOW_FILE)).expect("allow.txt");
    let rule_lines = analyze::AllowList::parse(&allow_text).entries.len();
    assert_eq!(report.allow_used, rule_lines, "allowlist entries in use");
}

#[test]
fn the_workspace_has_one_build_no_cargo_features() {
    // A feature on a workspace dependency unifies across tier-1's build
    // but not into `benchmarks/ladder` (its own workspace), so the tests
    // and the benchmark would run different compilations of one crate.
    let root = analyze::find_workspace_root().expect("workspace root");
    let mut manifests = vec![root.join("Cargo.toml")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(krate.expect("dir entry").path().join("Cargo.toml"));
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("crate manifest");
        for needle in ["[features]", "features = ["] {
            assert!(!text.contains(needle), "{}: {needle}", manifest.display());
        }
    }
}

#[test]
fn report_json_is_well_formed_and_lists_findings() {
    let root = analyze::find_workspace_root().expect("workspace root");
    let report = analyze::run_analysis(&root).expect("analysis runs");
    let json = analyze::report_json(&report);
    assert!(json.contains("\"tool\": \"cobra-analyze\""));
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"findings\": []"));
    for rule in ["R1", "R2", "R3", "R5", "R6", "R7", "R8", "R9", "R11"] {
        assert!(json.contains(&format!("\"{rule}\"")), "{rule} not listed");
    }
    // Balanced braces/brackets — cheap well-formedness proxy that does
    // not need a JSON parser (the workspace is dependency-free).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in:\n{json}");
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn analysis_is_fast_enough_for_ci() {
    let root = analyze::find_workspace_root().expect("workspace root");
    let start = std::time::Instant::now();
    let _ = analyze::run_analysis(&root).expect("analysis runs");
    let secs = start.elapsed().as_secs_f64();
    // Acceptance bound is ~10s for the whole pass; a debug-profile run
    // on loaded CI hardware still clears 8s with a wide margin.
    assert!(secs < 8.0, "analysis took {secs:.2}s");
}
