//! The `cobra-check` binary: commutativity oracles, schedule
//! exploration and static analysis under one entry point.
//!
//! ```text
//! cobra-check oracle    # commutativity oracles (models, reducers, replays)
//! cobra-check explore   # bounded exhaustive schedule exploration (one driver, three models)
//! cobra-check analyze   # the one static pass (R1-R3, R5-R11) + JSON report
//! cobra-check selftest  # seeded defects (dynamic + per-rule mutations)
//! cobra-check all       # everything above; non-zero exit on any failure
//! ```

#![forbid(unsafe_code)]

use cobra_check::{analyze, cluster, explore, oracle, subs};

/// Permuted orders tried per oracle subject.
const ORACLE_PERMS: usize = 6;

fn run_oracle() -> bool {
    println!("== commutativity oracle (permuted replays) ==");
    let mut ok = true;
    println!("  scatter models:");
    for r in oracle::check_all_scatter_models(ORACLE_PERMS) {
        println!("    {r}");
        ok &= r.agrees();
    }
    println!("  streaming reducers:");
    for r in oracle::check_reducers(ORACLE_PERMS) {
        println!("    {r}");
        ok &= r.agrees();
    }
    println!("  wal-suffix replays (recovery replay order):");
    for r in oracle::check_wal_replays(ORACLE_PERMS) {
        println!("    {r}");
        ok &= r.agrees();
    }
    println!("  whole-kernel replays (shuffled bins end to end):");
    for r in oracle::check_kernel_replays(ORACLE_PERMS) {
        println!("    {r}");
        ok &= r.agrees();
    }
    println!("  spgemm fusion (fused/streamed vs unfused, bitwise):");
    for r in oracle::check_spgemm_fusion(ORACLE_PERMS) {
        println!("    {r}");
        ok &= r.agrees();
    }
    ok
}

/// Exhausts every scenario of one model family; `holds` names the
/// invariant the clean line reports.
fn explore_suite<M: explore::Model>(title: &str, scenarios: &[M], holds: &str) -> bool {
    println!("== schedule exploration ({title}) ==");
    let mut ok = true;
    for sc in scenarios {
        match explore::explore(sc) {
            Ok(stats) => println!(
                "  {:32} {:>7} states, {:>4} terminal schedules, {holds}",
                sc.name(),
                stats.states,
                stats.terminals
            ),
            Err(v) => {
                println!("  {:32} VIOLATION: {v}", sc.name());
                ok = false;
            }
        }
    }
    ok
}

fn run_explore() -> bool {
    // An array, not `&&`: every suite runs even after a failure.
    [
        explore_suite(
            "stream channel/seal/epoch protocol",
            &explore::standard_scenarios(),
            "all invariants hold",
        ),
        explore_suite(
            "cluster cross-node seal/commit barrier",
            &cluster::standard_cluster_scenarios(),
            "publish-after-all-commit holds",
        ),
        explore_suite(
            "mvcc subscription fan-out / lossless lag",
            &subs::standard_sub_scenarios(),
            "gap-free delivery holds",
        ),
    ]
    .iter()
    .all(|&ok| ok)
}

fn run_analyze() -> bool {
    println!("== static analysis (cobra-analyze, rules R1-R3, R5-R11) ==");
    let loaded = analyze::find_workspace_root()
        .and_then(|root| analyze::run_analysis(&root).map(|report| (root, report)));
    let (root, report) = match loaded {
        Ok(x) => x,
        Err(e) => {
            println!("  cannot read the workspace sources: {e}");
            return false;
        }
    };
    println!(
        "  {} files, {} fns, {} calls, {} locks, {} atomics, {} lock-order edges ({} ms)",
        report.stats.files,
        report.stats.fns,
        report.stats.calls,
        report.stats.locks,
        report.stats.atomics,
        report.stats.lock_edges,
        report.stats.elapsed_ms,
    );
    if let Err(e) = analyze::write_report(&root, &report) {
        println!("  could not write {}: {e}", analyze::REPORT_FILE);
        return false;
    }
    println!(
        "  report: {} ({} allowlist entr{} in use)",
        analyze::REPORT_FILE,
        report.allow_used,
        if report.allow_used == 1 { "y" } else { "ies" },
    );
    if report.is_clean() {
        println!(
            "  clean (R1 ordering justification, R2 hot-path unwrap, R3 binning-path \
             mutex, R5 lock order, R6 commit-before-publish, R7 wire exhaustiveness, \
             R8 atomics pairing, R9 unsafe audit, R10 stale suppressions, R11 reactor \
             blocking I/O and sleeps)"
        );
        true
    } else {
        for f in &report.findings {
            println!("  {f}");
        }
        println!("  {} finding(s)", report.findings.len());
        false
    }
}

/// The dynamic seeded defects: `(what must happen, did it)`.
type SeededDefect = (&'static str, fn() -> bool);
const SEEDED_DEFECTS: &[SeededDefect] = &[
    ("lost-wakeup mutation deadlocks", || {
        explore::explore(&explore::lost_wakeup_mutation()).is_err()
    }),
    ("quorum-of-one barrier publishes early", || {
        explore::explore(&cluster::quorum_of_one_mutation()).is_err()
    }),
    ("drop-on-full fan-out loses an epoch", || {
        explore::explore(&subs::drop_on_full_mutation()).is_err()
    }),
    (
        "cross-column fusion mutation is detected",
        oracle::spgemm_broken_fusion_is_caught,
    ),
];

fn run_selftest() -> bool {
    println!("== self-test (seeded defects must be caught) ==");
    let verdict = |ok| {
        if ok {
            "ok"
        } else {
            "FAILED — checker is broken"
        }
    };
    let mut all = true;
    for (label, check) in SEEDED_DEFECTS {
        let ok = check();
        println!("  {label:48} {}", verdict(ok));
        all &= ok;
    }
    match analyze::find_workspace_root().and_then(|root| analyze::selftest::run_mutations(&root)) {
        Ok((baseline_clean, outcomes)) => {
            println!(
                "  {:48} {}",
                "static baseline (unmutated) is clean",
                verdict(baseline_clean)
            );
            all &= baseline_clean;
            for o in &outcomes {
                println!("  {:48} {}", o.name, verdict(o.caught));
                all &= o.caught;
            }
        }
        Err(e) => {
            println!("  static mutation selftest failed to run: {e}");
            all = false;
        }
    }
    all
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let ok = match mode.as_str() {
        "oracle" => run_oracle(),
        "explore" => run_explore(),
        "analyze" => run_analyze(),
        "selftest" => run_selftest(),
        "all" => {
            let mut ok = true;
            // Run every analysis even after a failure: one report, all news.
            ok &= run_oracle();
            ok &= run_explore();
            ok &= run_analyze();
            ok &= run_selftest();
            ok
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!("usage: cobra-check [oracle|explore|analyze|selftest|all]");
            std::process::exit(2);
        }
    };
    if ok {
        println!("cobra-check: PASS");
    } else {
        println!("cobra-check: FAIL");
        std::process::exit(1);
    }
}
