//! Seeded-mutation selftests: each analyzer rule must catch a planted
//! defect, and the unmutated workspace must stay clean.
//!
//! Mutations are applied to in-memory copies of the real sources and
//! re-analyzed — the mutated text only has to lex, not compile, so each
//! mutation can be the smallest possible seed of its bug class:
//!
//! * **R5** — a fn that takes `state` then `seal_lock`, inverting the
//!   existing `seal_lock → state` order from `Core::seal`.
//! * **R6** — delete the `commit` call in `Accumulator::advance`, so a
//!   snapshot publishes without its WAL commit.
//! * **R7** — delete the server's `Frame::WaitEpoch` dispatch arm (the
//!   "added a table row but forgot to serve it" class: the `_ =>`
//!   fallback keeps the server compiling).
//! * **R8** — strengthen a store to `Release` with no Acquire partner
//!   (one-sided ordering: the writer publishes, nobody acquires).

use std::io;
use std::path::Path;

use super::{analyze_set, AllowList, SourceSet, ALLOW_FILE};

/// A fn body appended to `pipeline.rs` that acquires `state` and then
/// `seal_lock` — the reverse of the order established by `Core::seal`.
const R5_MUTANT: &str = "\n\
fn lock_order_mutant(x: &MutantProbe) {\n\
    let _a = x.state.lock().expect(\"mutant\");\n\
    let _b = x.seal_lock.lock().expect(\"mutant\");\n\
}\n";

/// One selftest outcome.
#[derive(Debug)]
pub struct MutationOutcome {
    /// Short label for the report line.
    pub name: &'static str,
    /// The rule that must fire.
    pub rule: &'static str,
    /// True when the mutation was detected.
    pub caught: bool,
}

fn allow_for(root: &Path) -> AllowList {
    let text = std::fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default();
    AllowList::parse(&text)
}

fn fires(
    root: &Path,
    base: &SourceSet,
    rule: &'static str,
    mutate: impl Fn(&mut SourceSet),
) -> bool {
    let mut set = base.clone();
    mutate(&mut set);
    let report = analyze_set(&set, &mut allow_for(root));
    report.findings.iter().any(|f| f.rule == rule)
}

/// Runs the seeded-mutation battery. Returns `(baseline_clean,
/// outcomes)`; the caller fails unless the baseline is clean *and*
/// every mutation is caught.
pub fn run_mutations(root: &Path) -> io::Result<(bool, Vec<MutationOutcome>)> {
    let base = SourceSet::load(root)?;
    let baseline_clean = analyze_set(&base, &mut allow_for(root)).is_clean();
    let outcomes = vec![
        MutationOutcome {
            name: "R5 lock-order inversion (state before seal_lock)",
            rule: "R5",
            caught: fires(root, &base, "R5", |s| {
                s.append("stream/src/pipeline.rs", R5_MUTANT);
            }),
        },
        MutationOutcome {
            name: "R6 dropped WAL commit before publish",
            rule: "R6",
            caught: fires(root, &base, "R6", |s| {
                s.mutate("stream/src/epoch.rs", "self.commit(next, false);", "");
            }),
        },
        MutationOutcome {
            name: "R7 deleted WAIT_EPOCH server dispatch arm",
            rule: "R7",
            caught: fires(root, &base, "R7", |s| {
                s.mutate(
                    "serve/src/server.rs",
                    "Frame::WaitEpoch { epoch } =>",
                    "_ if false =>",
                );
            }),
        },
        MutationOutcome {
            name: "R8 one-sided Release on epochs_published",
            rule: "R8",
            caught: fires(root, &base, "R8", |s| {
                s.mutate(
                    "stream/src/epoch.rs",
                    "self.epochs_published.fetch_add(1, Ordering::Relaxed);",
                    "self.epochs_published.fetch_add(1, Ordering::Release);",
                );
            }),
        },
    ];
    Ok((baseline_clean, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::find_workspace_root;

    #[test]
    fn every_seeded_mutation_is_caught_and_baseline_is_clean() {
        let root = find_workspace_root().expect("workspace root");
        let (baseline_clean, outcomes) = run_mutations(&root).expect("analysis runs");
        assert!(baseline_clean, "unmutated workspace must analyze clean");
        for o in &outcomes {
            assert!(o.caught, "seeded mutation not caught: {}", o.name);
        }
    }
}
