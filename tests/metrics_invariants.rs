//! Integration tests over the *metrics* of simulated executions: the
//! architectural claims that must hold for the reproduction to be
//! meaningful, checked end-to-end through the public API.

use cobra_repro::graph::gen;
use cobra_repro::kernels::{run, Input, KernelId, ModeSpec, RunOutcome};
use cobra_repro::sim::MachineConfig;
use std::sync::OnceLock;

/// The input five of the tests share, generated once.
fn graph_input() -> &'static Input {
    static INPUT: OnceLock<Input> = OnceLock::new();
    // Large enough that the update working set exceeds the LLC slice.
    INPUT.get_or_init(|| Input::graph(gen::uniform_random(1 << 19, 1 << 21, 0xBEEF)))
}

/// `run(k, graph_input(), cobra_default, hpca22)`: several tests assert on
/// the same deterministic simulation, so it runs once per kernel.
fn cobra_on_graph(k: KernelId) -> &'static RunOutcome {
    static DEGREE_COUNT: OnceLock<RunOutcome> = OnceLock::new();
    static NEIGHBOR_POPULATE: OnceLock<RunOutcome> = OnceLock::new();
    let cell = match k {
        KernelId::DegreeCount => &DEGREE_COUNT,
        KernelId::NeighborPopulate => &NEIGHBOR_POPULATE,
        other => panic!("no two tests share a COBRA run of {}", other.name()),
    };
    cell.get_or_init(|| {
        run(
            k,
            graph_input(),
            &ModeSpec::cobra_default(),
            &MachineConfig::hpca22(),
        )
    })
}

#[test]
fn cobra_executes_fewer_instructions_than_software_pb() {
    let machine = MachineConfig::hpca22();
    let input = graph_input();
    for k in [KernelId::DegreeCount, KernelId::NeighborPopulate] {
        let pb = run(k, input, &ModeSpec::PbSw { min_bins: 256 }, &machine);
        let cobra = cobra_on_graph(k);
        assert!(
            (pb.metrics.instructions() as f64) > 1.3 * cobra.metrics.instructions() as f64,
            "{}: PB {} vs COBRA {}",
            k.name(),
            pb.metrics.instructions(),
            cobra.metrics.instructions()
        );
    }
}

#[test]
fn cobra_binning_has_no_management_branches() {
    let machine = MachineConfig::hpca22();
    let input = Input::keys(gen::random_keys(200_000, 1 << 20, 1), 1 << 20);
    let pb = run(
        KernelId::IntSort,
        &input,
        &ModeSpec::PbSw { min_bins: 512 },
        &machine,
    );
    let cobra = run(
        KernelId::IntSort,
        &input,
        &ModeSpec::cobra_default(),
        &machine,
    );
    let pb_bin = pb.metrics.result.phase("binning").expect("binning");
    let co_bin = cobra.metrics.result.phase("binning").expect("binning");
    // Software PB branches at least once per tuple in Binning; COBRA only
    // keeps the loop branch.
    assert!(pb_bin.core.branches > co_bin.core.branches);
}

#[test]
fn pb_accumulate_has_better_l1_locality_than_baseline() {
    let machine = MachineConfig::hpca22();
    let input = graph_input();
    let base = run(KernelId::DegreeCount, input, &ModeSpec::Baseline, &machine);
    let cobra = cobra_on_graph(KernelId::DegreeCount);
    let acc = cobra
        .metrics
        .result
        .phase("accumulate")
        .expect("accumulate");
    assert!(
        acc.mem.l1d.miss_rate() < base.metrics.result.mem.l1d.miss_rate(),
        "accumulate {} vs baseline {}",
        acc.mem.l1d.miss_rate(),
        base.metrics.result.mem.l1d.miss_rate()
    );
}

#[test]
fn binned_tuple_bytes_reach_dram_exactly_once() {
    // Conservation: COBRA's bin writes cover every tuple (full lines plus
    // flush partials), and the accumulate phase reads them back.
    let k = KernelId::NeighborPopulate; // 8B tuples
    let updates = graph_input().num_updates(k);
    let cobra = cobra_on_graph(k);
    let wr = cobra.metrics.result.mem.dram_write_bytes;
    assert!(
        wr >= updates * 8,
        "bin writes {wr} must cover {} tuple bytes",
        updates * 8
    );
}

#[test]
fn speedup_ordering_on_oversized_working_sets() {
    // The headline ordering (Figure 10): baseline <= PB-SW <= COBRA in
    // performance on inputs whose update range defeats the caches.
    let machine = MachineConfig::hpca22();
    let input = Input::graph(gen::uniform_random(1 << 21, 1 << 22, 3));
    let k = KernelId::DegreeCount;
    // The file's longest test: its three independent simulations run
    // side by side instead of back to back.
    let (base, pb, cobra) = std::thread::scope(|s| {
        let base = s.spawn(|| run(k, &input, &ModeSpec::Baseline, &machine));
        let pb = s.spawn(|| run(k, &input, &ModeSpec::PbSw { min_bins: 512 }, &machine));
        let cobra = run(k, &input, &ModeSpec::cobra_default(), &machine);
        (
            base.join().expect("baseline run"),
            pb.join().expect("PB-SW run"),
            cobra,
        )
    });
    assert!(
        pb.metrics.cycles() < base.metrics.cycles(),
        "PB {} vs baseline {}",
        pb.metrics.cycles(),
        base.metrics.cycles()
    );
    assert!(
        cobra.metrics.cycles() < pb.metrics.cycles(),
        "COBRA {} vs PB {}",
        cobra.metrics.cycles(),
        pb.metrics.cycles()
    );
}

#[test]
fn phases_partition_total_cycles() {
    let machine = MachineConfig::hpca22();
    let input = graph_input();
    let pb = run(
        KernelId::DegreeCount,
        input,
        &ModeSpec::PbSw { min_bins: 128 },
        &machine,
    );
    let total: u64 = pb.metrics.result.phases.iter().map(|p| p.core.cycles).sum();
    // Whole-run cycle counter equals the per-phase cycle total.
    assert_eq!(total, pb.metrics.cycles());
    let names: Vec<&str> = pb
        .metrics
        .result
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert_eq!(names, ["init", "binning", "accumulate"]);
}

#[test]
fn context_switches_only_add_bandwidth_waste() {
    let machine = MachineConfig::hpca22();
    let input = graph_input();
    let k = KernelId::DegreeCount;
    let clean = cobra_on_graph(k);
    let noisy = run(
        k,
        input,
        &ModeSpec::Cobra {
            reserved: None,
            des: cobra_repro::cobra::DesConfig::paper_default(),
            ctx_quantum: Some(20_000),
        },
        &machine,
    );
    assert_eq!(clean.digest, noisy.digest);
    assert!(
        noisy.metrics.result.mem.dram_write_bytes >= clean.metrics.result.mem.dram_write_bytes,
        "forced partial evictions can only add write traffic"
    );
}
