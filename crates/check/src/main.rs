//! The `cobra-check` binary: race detection, commutativity oracles,
//! schedule exploration and invariant linting under one entry point.
//!
//! ```text
//! cobra-check races     # vector-clock race + invariant check, all kernels
//! cobra-check oracle    # commutativity oracles (models, reducers, replays)
//! cobra-check explore   # bounded exhaustive schedule exploration
//! cobra-check lint      # source-level invariant lints (R1-R3, R9-R11)
//! cobra-check analyze   # cross-crate static analysis (R5-R8) + JSON report
//! cobra-check selftest  # seeded defects (dynamic + per-rule mutations)
//! cobra-check all       # everything above; non-zero exit on any failure
//! ```

#![forbid(unsafe_code)]

use cobra_check::{analyze, cluster, explore, fixtures, lint, oracle, race, subs};
use cobra_kernels::ALL_KERNELS;

/// Permuted orders tried per oracle subject.
const ORACLE_PERMS: usize = 6;

fn run_races() -> bool {
    println!("== race detection (FastTrack over instrumented runs) ==");
    let mut ok = true;
    for &k in ALL_KERNELS.iter() {
        let cap = fixtures::kernel_parallel_capture(k);
        let report = race::check_trace(&cap.events);
        println!(
            "  {:\u{2007}<18} {:>7} events  {:>2} threads  {:>6} bin writes  {:>6} acc writes  {}",
            format!("{k:?}"),
            report.events,
            report.threads,
            report.bin_writes,
            report.acc_writes,
            if report.is_clean() { "clean" } else { "RACY" },
        );
        for f in &report.findings {
            println!("    {f}");
        }
        ok &= report.is_clean();
    }
    let core = race::check_trace(&fixtures::core_exec_capture());
    println!(
        "  {:\u{2007}<18} {:>7} events  {:>2} threads  {:>6} bin writes  (core exec path)  {}",
        "SwPb-exec",
        core.events,
        core.threads,
        core.bin_writes,
        if core.is_clean() { "clean" } else { "RACY" },
    );
    for f in &core.findings {
        println!("    {f}");
    }
    ok && core.is_clean()
}

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

fn run_explore() -> bool {
    println!("== schedule exploration (stream channel/seal/epoch protocol) ==");
    let mut ok = true;
    for sc in explore::standard_scenarios() {
        match explore::explore(&sc) {
            Ok(stats) => println!(
                "  {:32} {:>7} states, {:>4} terminal schedules, all invariants hold",
                sc.name, stats.states, stats.terminals
            ),
            Err(v) => {
                println!("  {:32} VIOLATION: {v}", sc.name);
                ok = false;
            }
        }
    }
    println!("== schedule exploration (cluster cross-node seal/commit barrier) ==");
    for sc in cluster::standard_cluster_scenarios() {
        match cluster::explore_cluster(&sc) {
            Ok(stats) => println!(
                "  {:32} {:>7} states, {:>4} terminal schedules, publish-after-all-commit holds",
                sc.name, stats.states, stats.terminals
            ),
            Err(v) => {
                println!("  {:32} VIOLATION: {v}", sc.name);
                ok = false;
            }
        }
    }
    println!("== schedule exploration (mvcc subscription fan-out / lossless lag) ==");
    for sc in subs::standard_sub_scenarios() {
        match subs::explore_subs(&sc) {
            Ok(stats) => println!(
                "  {:32} {:>7} states, {:>4} terminal schedules, gap-free delivery holds",
                sc.name, stats.states, stats.terminals
            ),
            Err(v) => {
                println!("  {:32} VIOLATION: {v}", sc.name);
                ok = false;
            }
        }
    }
    ok
}

fn run_lint() -> bool {
    println!("== invariant lints ==");
    let root = match lint::find_workspace_root() {
        Ok(r) => r,
        Err(e) => {
            println!("  cannot locate workspace root: {e}");
            return false;
        }
    };
    match lint::run_lints(&root) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "  clean (R1-R3 over the hot-path crates, R9 unsafe audit over every \
                 crate, R10 stale-suppression check, R11 blocking-I/O audit over the \
                 reactor crates; single-pass walk)"
            );
            true
        }
        Ok(violations) => {
            for v in &violations {
                println!("  {v}");
            }
            println!("  {} violation(s)", violations.len());
            false
        }
        Err(e) => {
            println!("  lint failed to read sources: {e}");
            false
        }
    }
}

fn run_analyze() -> bool {
    println!("== static analysis (cobra-analyze, rules R5-R8) ==");
    let root = match lint::find_workspace_root() {
        Ok(r) => r,
        Err(e) => {
            println!("  cannot locate workspace root: {e}");
            return false;
        }
    };
    let report = match analyze::run_analysis(&root) {
        Ok(r) => r,
        Err(e) => {
            println!("  analysis failed to read sources: {e}");
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
        println!("  clean (R5 lock order, R6 commit-before-publish, R7 wire exhaustiveness, R8 atomics pairing)");
        true
    } else {
        for f in &report.findings {
            println!("  {f}");
        }
        println!("  {} finding(s)", report.findings.len());
        false
    }
}

fn run_selftest() -> bool {
    println!("== self-test (seeded defects must be caught) ==");
    let racy = race::check_trace(&fixtures::racy_degree_count_events());
    let racy_caught = racy
        .findings
        .iter()
        .any(|f| matches!(f, race::Finding::WriteRace { .. }));
    println!(
        "  seeded cross-bin write race:    {}",
        if racy_caught {
            "detected"
        } else {
            "MISSED — detector is broken"
        }
    );
    let clean = race::check_trace(&fixtures::clean_degree_count_events());
    println!(
        "  clean control run:              {}",
        if clean.is_clean() {
            "clean"
        } else {
            "FALSE POSITIVE"
        }
    );
    let buggy = explore::Scenario {
        name: "lost_wakeup_mutation",
        cap_data: 1,
        cap_acc: 1,
        producers: vec![
            vec![explore::POp::Send(1), explore::POp::Send(1)],
            vec![explore::POp::Send(1)],
        ],
        worker_exit_after: Some(0),
        buggy_drop_notify_one: true,
        strict_totals: false,
    };
    let deadlock_found = explore::explore(&buggy).is_err();
    println!(
        "  lost-wakeup mutation:           {}",
        if deadlock_found {
            "deadlock exposed"
        } else {
            "MISSED — explorer is broken"
        }
    );
    let quorum_caught = cluster::explore_cluster(&cluster::quorum_of_one_mutation()).is_err();
    println!(
        "  quorum-of-one barrier mutation: {}",
        if quorum_caught {
            "early publish exposed"
        } else {
            "MISSED — cluster explorer is broken"
        }
    );
    let drop_caught = subs::explore_subs(&subs::drop_on_full_mutation()).is_err();
    println!(
        "  drop-on-full fan-out mutation:  {}",
        if drop_caught {
            "lost epoch exposed"
        } else {
            "MISSED — subscription explorer is broken"
        }
    );
    let fusion_caught = oracle::spgemm_broken_fusion_is_caught();
    println!(
        "  cross-column fusion mutation:   {}",
        if fusion_caught {
            "detected"
        } else {
            "MISSED — fusion oracle is broken"
        }
    );
    let r11_caught = lint::seeded_blocking_io_mutation_is_caught();
    println!(
        "  blocking-I/O reactor mutation:  {}",
        if r11_caught {
            "detected"
        } else {
            "MISSED — R11 lint is broken"
        }
    );
    let analyzer_ok = match lint::find_workspace_root()
        .map_err(std::io::Error::other)
        .and_then(|root| analyze::selftest::run_mutations(&root))
    {
        Ok((baseline_clean, outcomes)) => {
            println!(
                "  analyzer baseline (unmutated):  {}",
                if baseline_clean {
                    "clean"
                } else {
                    "FALSE POSITIVE — workspace not clean"
                }
            );
            let mut all = baseline_clean;
            for o in &outcomes {
                println!(
                    "  {:32} {}",
                    o.name,
                    if o.caught {
                        "detected"
                    } else {
                        "MISSED — analyzer rule is broken"
                    }
                );
                all &= o.caught;
            }
            all
        }
        Err(e) => {
            println!("  analyzer mutation selftest failed to run: {e}");
            false
        }
    };
    racy_caught
        && clean.is_clean()
        && fusion_caught
        && deadlock_found
        && quorum_caught
        && drop_caught
        && r11_caught
        && analyzer_ok
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let ok = match mode.as_str() {
        "races" => run_races(),
        "oracle" => run_oracle(),
        "explore" => run_explore(),
        "lint" => run_lint(),
        "analyze" => run_analyze(),
        "selftest" => run_selftest(),
        "all" => {
            let mut ok = true;
            // Run every analysis even after a failure: one report, all news.
            ok &= run_races();
            ok &= run_oracle();
            ok &= run_explore();
            ok &= run_lint();
            ok &= run_analyze();
            ok &= run_selftest();
            ok
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!("usage: cobra-check [races|oracle|explore|lint|analyze|selftest|all]");
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
