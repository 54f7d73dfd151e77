//! End-to-end: cobra-analyze over the real workspace must be clean,
//! fast, and produce a sane machine-readable report, and the lint
//! runner must stay clean under its expanded rule set (R9/R10).

use cobra_check::analyze;
use cobra_check::lint;

#[test]
fn workspace_analyzes_clean_with_sane_stats() {
    let root = lint::find_workspace_root().expect("workspace root");
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
    // The workspace has real locks and atomics to reason about.
    assert!(report.stats.locks >= 10, "locks: {}", report.stats.locks);
    assert!(
        report.stats.atomics >= 50,
        "atomics: {}",
        report.stats.atomics
    );
    assert!(
        report.stats.lock_edges >= 3,
        "edges: {}",
        report.stats.lock_edges
    );
    // The audited allowlist entry is load-bearing (else stale-allow
    // would have fired above, but pin the count too).
    assert_eq!(report.allow_used, 1, "audited allowlist entries in use");
}

#[test]
fn report_json_is_well_formed_and_lists_findings() {
    let root = lint::find_workspace_root().expect("workspace root");
    let report = analyze::run_analysis(&root).expect("analysis runs");
    let json = analyze::report_json(&report);
    assert!(json.contains("\"tool\": \"cobra-analyze\""));
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"findings\": []"));
    // Balanced braces/brackets — cheap well-formedness proxy that does
    // not need a JSON parser (the workspace is dependency-free).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in:\n{json}");
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn lints_run_clean_over_the_whole_workspace() {
    let root = lint::find_workspace_root().expect("workspace root");
    let violations = lint::run_lints(&root).expect("lints run");
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn analysis_is_fast_enough_for_ci() {
    let root = lint::find_workspace_root().expect("workspace root");
    let start = std::time::Instant::now();
    let _ = analyze::run_analysis(&root).expect("analysis runs");
    let secs = start.elapsed().as_secs_f64();
    // Acceptance bound is ~10s for the whole pass; a debug-profile run
    // on loaded CI hardware still clears 8s with a wide margin.
    assert!(secs < 8.0, "analysis took {secs:.2}s");
}
