//! Seeded-mutation selftests: each static rule must catch a planted
//! defect, and the unmutated workspace must stay clean.
//!
//! Mutations are applied to in-memory copies of the real sources and
//! re-analyzed — the mutated text only has to lex, not compile, so each
//! mutation can be the smallest possible seed of its bug class:
//!
//! * **R1** — strip the `// ordering:` justification from a stats
//!   counter in `channel.rs`.
//! * **R2** — turn a lock-poisoning `expect` in the subscription hub
//!   into a bare `.unwrap()`, which no allowlist entry covers.
//! * **R3** — a `Mutex::new` in `binner.rs`.
//! * **R5** — a fn that takes `state` then `seal_lock`, inverting the
//!   existing `seal_lock → state` order from `Core::seal`.
//! * **R6** — delete the `commit` call in `Accumulator::advance`, so a
//!   snapshot publishes without its WAL commit.
//! * **R7** — delete the server's `Frame::WaitEpoch` dispatch arm (the
//!   "added a table row but forgot to serve it" class: the `_ =>`
//!   fallback keeps the server compiling).
//! * **R8** — weaken the Acquire load paired with `epochs_published`'s
//!   Release store to `Relaxed` (one-sided ordering: the writer
//!   publishes, nobody acquires).
//! * **R9** — an `unsafe` block in `binner.rs`; and, separately, the
//!   `#![forbid(unsafe_code)]` attribute stripped from `cobra-pb`'s root.
//! * **R11** — a blocking read timeout reinstated on the reactor path;
//!   and, separately, a `thread::sleep` in the reactor's module.

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

/// The battery: `(report label, rule that must fire, mutation)`.
type Mutation = (&'static str, &'static str, fn(&mut SourceSet));
const MUTATIONS: &[Mutation] = &[
    ("R1 stripped `// ordering:` justification", "R1", |s| {
        s.mutate(
            "stream/src/channel.rs",
            "// ordering: Relaxed — stats counter; the queue itself is",
            "// Relaxed — stats counter; the queue itself is",
        );
    }),
    ("R2 bare unwrap in the subscription hub", "R2", |s| {
        s.mutate(
            "mvcc/src/hub.rs",
            ".expect(\"mvcc sub_q lock poisoned\")",
            ".unwrap()",
        );
    }),
    ("R3 Mutex on the binning path", "R3", |s| {
        s.append(
            "pb/src/binner.rs",
            "\nfn mutex_mutant() {\n    let _m = std::sync::Mutex::new(0u32);\n}\n",
        );
    }),
    (
        "R5 lock-order inversion (state before seal_lock)",
        "R5",
        |s| {
            s.append("stream/src/pipeline.rs", R5_MUTANT);
        },
    ),
    ("R6 dropped WAL commit before publish", "R6", |s| {
        s.mutate("stream/src/epoch.rs", "self.commit(next, false);", "");
    }),
    ("R7 deleted WAIT_EPOCH server dispatch arm", "R7", |s| {
        s.mutate(
            "serve/src/server.rs",
            "Frame::WaitEpoch { epoch } =>",
            "_ if false =>",
        );
    }),
    ("R8 one-sided Release on epochs_published", "R8", |s| {
        s.mutate(
            "stream/src/pipeline.rs",
            "self.epochs_published.load(Ordering::Acquire)",
            "self.epochs_published.load(Ordering::Relaxed)",
        );
    }),
    ("R9 unaudited unsafe block", "R9", |s| {
        s.append(
            "pb/src/binner.rs",
            "\nfn unsafe_mutant() {\n    unsafe {}\n}\n",
        );
    }),
    ("R9 stripped #![forbid(unsafe_code)]", "R9", |s| {
        s.mutate("pb/src/lib.rs", "#![forbid(unsafe_code)]", "");
    }),
    ("R11 blocking read timeout on the reactor", "R11", |s| {
        s.append(
            "serve/src/server.rs",
            "\nfn blocking_mutant(conn: &mut Conn) {\n    \
             conn.stream.set_read_timeout(Some(Duration::from_millis(50))).ok();\n}\n",
        );
    }),
    ("R11 sleep on the reactor path", "R11", |s| {
        s.append(
            "serve/src/server.rs",
            "\nfn sleep_mutant() {\n    std::thread::sleep(Duration::from_millis(1));\n}\n",
        );
    }),
];

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

/// Runs the seeded-mutation battery. Returns `(baseline_clean,
/// outcomes)`; the caller fails unless the baseline is clean *and*
/// every mutation is caught.
pub fn run_mutations(root: &Path) -> io::Result<(bool, Vec<MutationOutcome>)> {
    let base = SourceSet::load(root)?;
    // Each run gets a fresh allowlist (entries track their own use).
    let allow_text = std::fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default();
    let analyze = |set: &SourceSet| analyze_set(set, &mut AllowList::parse(&allow_text));
    let baseline_clean = analyze(&base).is_clean();
    let outcomes = MUTATIONS
        .iter()
        .map(|&(name, rule, mutate)| {
            let mut set = base.clone();
            mutate(&mut set);
            MutationOutcome {
                name,
                rule,
                caught: analyze(&set).findings.iter().any(|f| f.rule == rule),
            }
        })
        .collect();
    Ok((baseline_clean, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::find_workspace_root;

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
