//! Bounded exhaustive exploration of the cluster's cross-node
//! seal/commit protocol (`cobra-cluster`'s epoch barrier).
//!
//! The model is the coordinator-free alignment rule as the router and the
//! nodes actually implement it: one router seals epoch `E` on every node,
//! each node *later* durably commits `E` (its epoch sink runs
//! asynchronously relative to the seal reply — exactly the gap between
//! `SEAL`'s `Sealed` response and `WAIT_EPOCH`'s `EpochCommitted`), and
//! the router may assemble the cluster snapshot for `E` only after its
//! `WAIT_EPOCH(E)` barrier completed on *every* node.
//!
//! Every interleaving of node seal-processing and commit steps against
//! router progress is explored by [`crate::explore::explore`] (this
//! module is only the [`Model`]). The core invariant, asserted at each
//! publish:
//!
//! > **The cluster snapshot for epoch `E` never publishes before every
//! > node has reported `EpochCommit(E)`.**
//!
//! The self-test seeds the natural protocol bug — a quorum-of-one
//! barrier that proceeds after the first node's commit — and the
//! explorer must find a schedule where the second node's commit is still
//! pending at publish time.

use crate::explore::Model;

/// One bounded cluster scenario to exhaust.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Display name.
    pub name: &'static str,
    /// Number of backend nodes (the tests use 2, per the cluster e2e).
    pub nodes: usize,
    /// Epoch rounds the router drives (seal → barrier → publish).
    pub rounds: u8,
    /// Mutation for the self-test: the barrier waits only for node 0's
    /// commit (a quorum of one) instead of every node's.
    pub buggy_quorum_of_one: bool,
}

/// One node's protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeSt {
    /// A `SEAL` request is queued and not yet processed.
    seal_requested: bool,
    /// Epochs sealed (the `Sealed { epoch }` reply value).
    sealed: u8,
    /// Epochs durably committed (what `WAIT_EPOCH` reports). Always lags
    /// or equals `sealed`: commit is the node's asynchronous second step.
    committed: u8,
}

/// Router phases, in protocol order for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RPhase {
    /// Fan the round's `SEAL` out to node `i` (requests are sent
    /// immediately; nodes process them whenever they are scheduled).
    SendSeal(u8),
    /// Await node `i`'s `Sealed` reply and check epoch alignment.
    AwaitSealed(u8),
    /// `WAIT_EPOCH` barrier on node `i`.
    Barrier(u8),
    /// All barriers passed: publish the cluster snapshot for the round.
    Publish,
    /// All rounds done.
    Done,
}

/// One explicit protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CSt {
    nodes: Vec<NodeSt>,
    router: RPhase,
    /// Epoch the router is currently driving (1-based).
    round: u8,
    /// Highest cluster epoch published so far.
    published: u8,
}

impl ClusterScenario {
    /// Router progress for one step; `None` when it is blocked waiting on
    /// a node (a reply or the commit barrier).
    fn step_router(&self, st: &CSt) -> Result<Option<CSt>, String> {
        let n = self.nodes as u8;
        match st.router {
            RPhase::SendSeal(i) => {
                let mut next = st.clone();
                next.nodes[i as usize].seal_requested = true;
                next.router = if i + 1 < n {
                    RPhase::SendSeal(i + 1)
                } else {
                    RPhase::AwaitSealed(0)
                };
                Ok(Some(next))
            }
            RPhase::AwaitSealed(i) => {
                let node = &st.nodes[i as usize];
                if node.seal_requested {
                    return Ok(None); // reply not in yet
                }
                // Single-sealer alignment: every node must report the
                // round's epoch.
                if node.sealed != st.round {
                    return Err(format!(
                        "node {i} sealed epoch {} in round {} — single-sealer \
                         alignment broken",
                        node.sealed, st.round
                    ));
                }
                let mut next = st.clone();
                next.router = if i + 1 < n {
                    RPhase::AwaitSealed(i + 1)
                } else {
                    RPhase::Barrier(0)
                };
                Ok(Some(next))
            }
            RPhase::Barrier(i) => {
                if st.nodes[i as usize].committed < st.round {
                    return Ok(None); // WAIT_EPOCH still blocking
                }
                let mut next = st.clone();
                // The seeded bug: treat node 0's commit as a quorum and
                // skip the remaining barriers.
                let barrier_done = self.buggy_quorum_of_one || i + 1 >= n;
                next.router = if barrier_done {
                    RPhase::Publish
                } else {
                    RPhase::Barrier(i + 1)
                };
                Ok(Some(next))
            }
            RPhase::Publish => {
                // THE invariant: publish only after every node's commit.
                for (i, node) in st.nodes.iter().enumerate() {
                    if node.committed < st.round {
                        return Err(format!(
                            "cluster snapshot for epoch {} published while node {i} \
                             had only committed epoch {}",
                            st.round, node.committed
                        ));
                    }
                }
                let mut next = st.clone();
                next.published = st.round;
                if st.round < self.rounds {
                    next.round += 1;
                    next.router = RPhase::SendSeal(0);
                } else {
                    next.router = RPhase::Done;
                }
                Ok(Some(next))
            }
            RPhase::Done => Ok(None),
        }
    }

    /// Node `i`'s possible steps: process a queued `SEAL`, and/or commit
    /// one sealed-but-uncommitted epoch (the asynchronous epoch sink).
    /// Both may be enabled at once — the DFS branches over the choice.
    fn step_node(&self, st: &CSt, i: usize) -> Result<Vec<CSt>, String> {
        let node = &st.nodes[i];
        if node.committed > node.sealed {
            return Err(format!(
                "node {i} committed epoch {} beyond sealed epoch {} — commit \
                 must follow seal",
                node.committed, node.sealed
            ));
        }
        let mut out = Vec::new();
        if node.seal_requested {
            let mut next = st.clone();
            next.nodes[i].seal_requested = false;
            next.nodes[i].sealed += 1;
            out.push(next);
        }
        if node.committed < node.sealed {
            let mut next = st.clone();
            next.nodes[i].committed += 1;
            out.push(next);
        }
        Ok(out)
    }
}

impl Model for ClusterScenario {
    type State = CSt;

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&self) -> CSt {
        CSt {
            nodes: vec![
                NodeSt {
                    seal_requested: false,
                    sealed: 0,
                    committed: 0,
                };
                self.nodes
            ],
            router: RPhase::SendSeal(0),
            round: 1,
            published: 0,
        }
    }

    fn successors(&self, st: &CSt) -> Result<Vec<CSt>, String> {
        let mut out = Vec::from_iter(self.step_router(st)?);
        for i in 0..self.nodes {
            out.extend(self.step_node(st, i)?);
        }
        Ok(out)
    }

    fn check_end(&self, st: &CSt) -> Result<(), String> {
        if st.router != RPhase::Done {
            return Err(format!(
                "deadlock in round {} with router at {:?}",
                st.round, st.router
            ));
        }
        if st.published != self.rounds {
            return Err(format!(
                "terminated having published epoch {} of {}",
                st.published, self.rounds
            ));
        }
        Ok(())
    }
}

/// The standard cluster scenario suite: the e2e configuration (two
/// nodes) over one and several rounds, plus a wider fan-out.
pub fn standard_cluster_scenarios() -> Vec<ClusterScenario> {
    vec![
        ClusterScenario {
            name: "two_nodes_one_round",
            nodes: 2,
            rounds: 1,
            buggy_quorum_of_one: false,
        },
        ClusterScenario {
            name: "two_nodes_three_rounds",
            nodes: 2,
            rounds: 3,
            buggy_quorum_of_one: false,
        },
        ClusterScenario {
            name: "four_nodes_two_rounds",
            nodes: 4,
            rounds: 2,
            buggy_quorum_of_one: false,
        },
    ]
}

/// The seeded quorum-of-one mutation the self-test must catch.
pub fn quorum_of_one_mutation() -> ClusterScenario {
    ClusterScenario {
        name: "quorum_of_one_mutation",
        nodes: 2,
        rounds: 1,
        buggy_quorum_of_one: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn standard_cluster_scenarios_exhaust_cleanly() {
        // (states, terminals) as this module's own driver reported them.
        let want = [(27, 1), (79, 1), (533, 1)];
        for (sc, want) in standard_cluster_scenarios().iter().zip(want) {
            let stats = explore(sc).unwrap_or_else(|v| panic!("{v}"));
            assert_eq!((stats.states, stats.terminals), want, "{}", sc.name);
        }
    }

    #[test]
    fn quorum_of_one_publishes_before_full_commit_and_is_caught() {
        // The mutated barrier proceeds on node 0's commit alone; some
        // schedule leaves node 1 uncommitted at publish, and the
        // explorer must find it.
        let err = explore(&quorum_of_one_mutation())
            .expect_err("quorum-of-one must violate the publish invariant");
        assert!(err.message.contains("published while node"), "got: {err}");
    }

    #[test]
    fn commit_beyond_seal_would_be_caught() {
        // Sanity-check the checker itself: a node state where commit ran
        // ahead of seal must violate.
        let sc = ClusterScenario {
            name: "self_check",
            nodes: 1,
            rounds: 1,
            buggy_quorum_of_one: false,
        };
        let mut st = sc.initial();
        st.nodes[0].committed = 1;
        let err = sc
            .step_node(&st, 0)
            .expect_err("commit beyond seal must violate");
        assert!(err.contains("beyond sealed"), "got: {err}");
    }
}
