//! `repro [--quick|--full] [name…]`: regenerates the paper's tables and
//! figures, one row of [`EXPERIMENTS`] each, in table order (every row
//! when no name is given). `--quick` is CI-sized, `--full` the paper
//! regime (slow), the default a standard scale.

#![forbid(unsafe_code)]

use cobra_bench::{inputs, report, Cells, NamedInput, Scale, Table};
use cobra_bins::BinStore;
use cobra_core::comm::{run_cobra_comm, run_phi, run_plain};
use cobra_core::evict::simulate_fixed_rate;
use cobra_core::exec::{geomean, phases, RunMetrics};
use cobra_core::{BinHierarchy, CobraMachine, DesConfig, PbBackend, ReservedWays, SwPb};
use cobra_kernels::tiling::{pagerank_baseline_iters, pagerank_pb_iters, pagerank_tiled};
use cobra_kernels::{bin_choices, Input, KernelId, ModeSpec, ALL_KERNELS};
use cobra_sim::engine::{Engine, SimEngine};
use cobra_sim::MachineConfig;

/// One experiment: a paper artifact and the function regenerating it.
struct Experiment {
    /// Row name; also the CSV name of every single-table row.
    name: &'static str,
    /// The paper's table or figure.
    artifact: &'static str,
    /// One CSV name per table `run` returns, in order.
    csvs: &'static [&'static str],
    /// Runs the experiment at a scale, reading every kernel run from the
    /// process's one cell table; prints its own progress and any line
    /// that precedes its tables.
    run: fn(Scale, &mut Cells) -> Vec<Table>,
    /// What the paper's version of the artifact shows; empty for the
    /// parameter tables.
    shape: &'static str,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "tab2_machine",
        artifact: "Table II",
        csvs: &["tab2_machine"],
        run: tab2_machine,
        shape: "",
    },
    Experiment {
        name: "tab3_inputs",
        artifact: "Table III",
        csvs: &["tab3_inputs"],
        run: tab3_inputs,
        shape: "",
    },
    Experiment {
        name: "fig02_llc_missrate",
        artifact: "Figure 2",
        csvs: &["fig02_llc_missrate"],
        run: fig02_llc_missrate,
        shape: "Shape check (paper): every kernel shows a high LLC miss rate under\n\
             irregular updates; streaming-friendly kernels are only saved by MLP, not locality.",
    },
    Experiment {
        name: "tab1_phase_breakdown",
        artifact: "Table I",
        csvs: &["tab1_phase_breakdown"],
        run: tab1_phase_breakdown,
        shape: "Shape check (paper Table I): Binning is the dominant phase of PB,\n\
             and its share grows with the number of bins.",
    },
    Experiment {
        name: "fig04_bin_sensitivity",
        artifact: "Figure 4a/4b",
        csvs: &["fig04_bin_sensitivity"],
        run: fig04_bin_sensitivity,
        shape: "Shape check (paper Fig. 4): Binning cycles rise with bin count (C-Buffers\n\
             spill to L2/LLC); Accumulate cycles fall (per-bin range shrinks into L1);\n\
             the best total sits between the two ideals.",
    },
    Experiment {
        name: "fig05_ideal_headroom",
        artifact: "Figure 5",
        csvs: &["fig05_ideal_headroom"],
        run: fig05_ideal_headroom,
        shape: "Shape check (paper Fig. 5): PB-SW-IDEAL adds ~1.2x mean headroom over\n\
             PB-SW — the gap COBRA's hierarchical C-Buffers close.",
    },
    Experiment {
        name: "fig10_speedups",
        artifact: "Figure 10",
        csvs: &["fig10_speedups"],
        run: fig10_speedups,
        shape: "Shape check (paper Fig. 10): PB-SW ~1.8x mean over Baseline; IDEAL adds\n\
             ~1.2x; COBRA beats PB-SW (mean ~1.7x, up to ~3.8x) and Baseline (~3.2x).\n\
             PINV and SymPerm show the smallest COBRA benefit.",
    },
    Experiment {
        name: "fig11_phase_speedups",
        artifact: "Figure 11",
        csvs: &["fig11_phase_speedups"],
        run: fig11_phase_speedups,
        shape: "Shape check (paper Fig. 11): Binning speedups (2.2-32x, mean ~8x) far\n\
             exceed Accumulate speedups; both phases improve under COBRA.",
    },
    Experiment {
        name: "fig12_instr_branch",
        artifact: "Figure 12",
        csvs: &["fig12_instr_branch"],
        run: fig12_instr_branch,
        shape: "Shape check (paper Fig. 12): COBRA executes 2-5.5x fewer instructions,\n\
             eliminates C-Buffer-management branch misses (Pagerank/Radii/SymPerm keep\n\
             their data-dependent branches), and raises Binning IPC (paper: 0.71 -> 1.55).",
    },
    Experiment {
        name: "fig13a_evict_buffers",
        artifact: "Figure 13a",
        csvs: &["fig13a_evict_buffers"],
        run: fig13a_evict_buffers,
        shape: "Shape check (paper Fig. 13a): stall fraction falls with buffer size and a\n\
             32-entry L1->L2 eviction buffer hides eviction latency for all inputs\n\
             (Little's-law estimate was 14; bursts require 32).",
    },
    Experiment {
        name: "fig13b_way_sensitivity",
        artifact: "Figure 13b",
        csvs: &["fig13b_way_sensitivity"],
        run: fig13b_way_sensitivity,
        shape: "Shape check (paper Fig. 13b): Binning is robust (<~10%) to L1/LLC\n\
             reservation because non-C-Buffer accesses are streaming; L2 reservation\n\
             matters more because it steals capacity from the stream prefetcher —\n\
             hence the default reserves only one L2 way.",
    },
    Experiment {
        name: "fig13c_ctx_switch",
        artifact: "Figure 13c",
        csvs: &["fig13c_ctx_switch"],
        run: fig13c_ctx_switch,
        shape: "Shape check (paper Fig. 13c): worst-case bandwidth waste stays small\n\
             (<5%) even at 1/100th of the default scheduling quantum, because COBRA's\n\
             fast Binning completes within few quanta.",
    },
    Experiment {
        name: "fig14_comm_compare",
        artifact: "Figure 14a/14b",
        csvs: &["fig14a_dram_traffic", "fig14b_l1_misses"],
        run: fig14_comm_compare,
        shape: "Shape check (paper Fig. 14): PHI and COBRA-COMM cut DRAM traffic on the\n\
             skewed graphs (DBP'/KRON'/HBUBL'), with COBRA-COMM matching PHI because\n\
             PHI coalesces mostly at the LLC; on low-reuse inputs (URND'/EURO') the\n\
             benefit vanishes. COBRA(-COMM) minimizes L1 misses via optimal bins;\n\
             PHI is stuck with PB-SW's compromise bin count.",
    },
    Experiment {
        name: "fig15_tiling_vs_pb",
        artifact: "Figure 15",
        csvs: &["fig15_tiling_vs_pb"],
        run: fig15_tiling_vs_pb,
        shape: "Shape check (paper Fig. 15): ignoring init, PB (~1.35x) edges out Tiling\n\
             (~1.27x); Tiling's per-tile CSR construction costs far more than PB's bin\n\
             allocation, so PB wins end-to-end — the reason COBRA builds on PB.",
    },
    Experiment {
        name: "ablation_partitioning",
        artifact: "Section V-E",
        csvs: &["ablation_partitioning"],
        run: ablation_partitioning,
        shape: "Shape check (paper Section V-E): the C-Buffer miss rate stays low\n\
             (paper: <1%) without partitioning because other Binning accesses are\n\
             streaming, so COBRA degrades gracefully on machines without CAT.",
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, rows) = parse(&args).unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        eprintln!("usage: repro [--quick|--full] [name...]; names:");
        for e in EXPERIMENTS {
            eprintln!("  {:<24}{}", e.name, e.artifact);
        }
        std::process::exit(2)
    });
    let mut cells = Cells::new(MachineConfig::hpca22());
    report::print_machine(cells.machine());
    for e in rows {
        let tables = (e.run)(scale, &mut cells);
        assert_eq!(tables.len(), e.csvs.len(), "{}: one CSV per table", e.name);
        for (t, csv) in tables.iter().zip(e.csvs) {
            t.print();
            t.write_csv(csv);
        }
        if !e.shape.is_empty() {
            println!("\n{}", e.shape);
        }
    }
    eprintln!("inputs: {} generated", cells.inputs_generated());
    eprintln!(
        "cells: {} simulated, {} reused",
        cells.simulated(),
        cells.reused()
    );
}

/// Parses `[--quick|--full] [name…]` into the scale (default `Standard`)
/// and the rows to run, in table order.
fn parse(args: &[String]) -> Result<(Scale, Vec<&'static Experiment>), String> {
    let mut scale = None;
    let mut names = Vec::new();
    for arg in args {
        let s = match arg.as_str() {
            "--quick" => Scale::Quick,
            "--full" => Scale::Full,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if EXPERIMENTS.iter().any(|e| e.name == name) => {
                names.push(name);
                continue;
            }
            name => return Err(format!("unknown experiment `{name}`")),
        };
        if scale.is_some_and(|prev| prev != s) {
            return Err("--quick and --full are exclusive".into());
        }
        scale = Some(s);
    }
    let rows = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
        .collect();
    Ok((scale.unwrap_or(Scale::Standard), rows))
}

/// Table II: the simulated machine parameters.
fn tab2_machine(_: Scale, cells: &mut Cells) -> Vec<Table> {
    let m = cells.machine();
    let mut t = Table::new(
        "Table II: Simulation parameters (per core)",
        &["component", "value"],
    );
    t.row(vec![
        "Core".into(),
        format!(
            "OoO, 2.66GHz, {}-wide issue, {}-entry ROB, {}-entry LQ, {}-entry SQ, {} MSHRs",
            m.issue_width, m.rob, m.load_queue, m.store_queue, m.mshrs
        ),
    ]);
    t.row(vec![
        "L1D".into(),
        format!(
            "{}KB, {}-way, {:?}, load-to-use {} cyc",
            m.l1.size_bytes / 1024,
            m.l1.ways,
            m.l1.replacement,
            m.l1.latency
        ),
    ]);
    t.row(vec![
        "L2".into(),
        format!(
            "{}KB, {}-way, {:?}, load-to-use {} cyc, stream prefetcher (degree {})",
            m.l2.size_bytes / 1024,
            m.l2.ways,
            m.l2.replacement,
            m.l2.latency,
            m.prefetch.degree
        ),
    ]);
    t.row(vec![
        "LLC (local NUCA slice)".into(),
        format!(
            "{}MB/core, {}-way, {:?}, load-to-use {} cyc",
            m.llc.size_bytes / (1024 * 1024),
            m.llc.ways,
            m.llc.replacement,
            m.llc.latency
        ),
    ]);
    t.row(vec![
        "DRAM".into(),
        format!(
            "{} cyc (~80ns) latency, {} cyc per 64B line (per-core channel share)",
            m.dram_latency, m.dram_line_occupancy
        ),
    ]);
    t.row(vec![
        "Note".into(),
        "single representative core; LLC = per-core 2MB NUCA bank (DESIGN.md §2)".into(),
    ]);
    vec![t]
}

/// Table III: the (scaled) input suite.
fn tab3_inputs(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    println!("scale: {scale:?}");
    let mut t = Table::new(
        "Table III: Input graphs and matrices (scaled stand-ins; DESIGN.md §2)",
        &["name", "class", "vertices/rows", "edges/nnz", "max degree"],
    );
    for ni in inputs::graph_suite(cells, scale) {
        if let Input::Graph { el, .. } = &ni.input {
            let max_deg = el.degrees().into_iter().max().unwrap_or(0);
            t.row(vec![
                ni.name.clone(),
                ni.class.into(),
                el.num_vertices().to_string(),
                el.num_edges().to_string(),
                max_deg.to_string(),
            ]);
        }
    }
    for ni in inputs::matrix_suite(cells, scale) {
        if let Input::Matrix { m, .. } = &ni.input {
            let max_row = (0..m.rows())
                .map(|r| m.row_offsets()[r as usize + 1] - m.row_offsets()[r as usize])
                .max()
                .unwrap_or(0);
            t.row(vec![
                ni.name.clone(),
                ni.class.into(),
                m.rows().to_string(),
                m.nnz().to_string(),
                max_row.to_string(),
            ]);
        }
    }
    let s = inputs::sort_input(cells, scale);
    if let Input::Keys { keys, max_key } = &s.input {
        t.row(vec![
            s.name.clone(),
            s.class.into(),
            max_key.to_string(),
            keys.len().to_string(),
            "-".into(),
        ]);
    }
    vec![t]
}

/// Figure 2: LLC miss rates of the baseline (unoptimized) executions of
/// every kernel — the motivation that irregular updates defeat conventional
/// cache hierarchies.
fn fig02_llc_missrate(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 2: LLC miss rate of baseline irregular-update executions",
        &["kernel", "input", "LLC miss rate", "L1 miss rate", "IPC"],
    );
    for &k in &ALL_KERNELS {
        let ni = inputs::representative_input(cells, k, scale);
        let out = cells.get(k, &ni, ModeSpec::Baseline);
        let mem = &out.metrics.result.mem;
        t.row(vec![
            k.name().into(),
            ni.name.clone(),
            report::pct(mem.llc.miss_rate()),
            report::pct(mem.l1d.miss_rate()),
            report::f2(out.metrics.result.core.ipc()),
        ]);
        eprintln!("[done] {}", k.name());
    }
    vec![t]
}

/// Table I: PB execution time breakdown (Init / Binning / Accumulate) at a
/// small and a large bin count — showing Binning dominates, especially with
/// many bins.
fn tab1_phase_breakdown(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Table I: PB phase breakdown (percent of total cycles)",
        &["kernel", "input", "bins", "init", "binning", "accumulate"],
    );
    for k in [KernelId::NeighborPopulate, KernelId::Pagerank] {
        let ni = inputs::representative_input(cells, k, scale);
        let choices = bin_choices(k, &ni.input, cells.machine());
        for (label, bins) in [
            ("few", choices.binning_ideal),
            ("many", choices.accumulate_ideal * 4),
        ] {
            let out = cells.get(k, &ni, ModeSpec::PbSw { min_bins: bins });
            let m = &out.metrics;
            let total = m.cycles().max(1) as f64;
            t.row(vec![
                k.name().into(),
                ni.name.clone(),
                format!("{label} ({bins})"),
                report::pct(m.phase_cycles(phases::INIT) as f64 / total),
                report::pct(m.phase_cycles(phases::BINNING) as f64 / total),
                report::pct(m.phase_cycles(phases::ACCUMULATE) as f64 / total),
            ]);
            eprintln!("[done] {} bins={bins}", k.name());
        }
    }
    vec![t]
}

/// Figure 4: sensitivity of software PB to the number of bins.
///
/// 4a: Binning and Accumulate cycles as the bin count sweeps over powers of
/// two. 4b: the per-phase load-miss breakdown (L2 / LLC / DRAM accesses)
/// explaining it: Binning degrades once the C-Buffers outgrow L1/L2, while
/// Accumulate improves until one bin's data fits in L1.
fn fig04_bin_sensitivity(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let kernel = KernelId::NeighborPopulate;
    let ni = inputs::representative_input(cells, kernel, scale);
    let choices = bin_choices(kernel, &ni.input, cells.machine());
    println!(
        "kernel: {} on {} | operating points: binning-ideal {}, sweet {}, accumulate-ideal {}",
        kernel.name(),
        ni.name.clone(),
        choices.binning_ideal,
        choices.sweet_spot,
        choices.accumulate_ideal
    );

    let mut t = Table::new(
        "Figure 4a/4b: PB phase cycles and load-miss breakdown vs number of bins",
        &[
            "bins",
            "binning Mcycles",
            "accumulate Mcycles",
            "total Mcycles",
            "bin L2-hits",
            "bin LLC-hits",
            "bin DRAM",
            "acc L2-hits",
            "acc LLC-hits",
            "acc DRAM",
        ],
    );

    // Sweep from well below the binning ideal to well past the accumulate
    // ideal (clamped to the key domain).
    let lo = (choices.binning_ideal / 4).max(1);
    let hi = choices.accumulate_ideal * 16;
    let mut bins = lo;
    while bins <= hi {
        let out = cells.get(kernel, &ni, ModeSpec::PbSw { min_bins: bins });
        let m = &out.metrics;
        let bp = m.result.phase(phases::BINNING).expect("binning phase");
        let ap = m
            .result
            .phase(phases::ACCUMULATE)
            .expect("accumulate phase");
        let mc = |c: u64| format!("{:.1}", c as f64 / 1e6);
        t.row(vec![
            bins.to_string(),
            mc(bp.core.cycles),
            mc(ap.core.cycles),
            mc(m.cycles()),
            (bp.mem.l2.hits).to_string(),
            (bp.mem.llc.hits).to_string(),
            (bp.mem.llc.misses).to_string(),
            (ap.mem.l2.hits).to_string(),
            (ap.mem.llc.hits).to_string(),
            (ap.mem.llc.misses).to_string(),
        ]);
        eprintln!("[done] bins={bins}");
        bins *= 4;
    }
    vec![t]
}

/// Figure 5: the headroom of idealized PB (PB-SW-IDEAL) — each phase run at
/// its own best bin count — over realizable software PB.
fn fig05_ideal_headroom(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 5: speedup over Baseline — PB-SW vs PB-SW-IDEAL",
        &["kernel", "input", "PB-SW", "PB-SW-IDEAL", "ideal/PB"],
    );
    let mut pb_speedups = Vec::new();
    let mut ideal_speedups = Vec::new();
    for &k in &ALL_KERNELS {
        let ni = inputs::representative_input(cells, k, scale);
        let pb = cells.pb_modes(k, &ni);
        let s_pb = pb.speedup(&pb.pb_sw);
        let s_ideal = pb.speedup(&pb.pb_ideal);
        pb_speedups.push(s_pb);
        ideal_speedups.push(s_ideal);
        t.row(vec![
            k.name().into(),
            ni.name.clone(),
            report::f2(s_pb),
            report::f2(s_ideal),
            report::f2(s_ideal / s_pb),
        ]);
        eprintln!("[done] {}", k.name());
    }
    t.row(vec![
        "GEOMEAN".into(),
        "-".into(),
        report::f2(geomean(pb_speedups.iter().copied())),
        report::f2(geomean(ideal_speedups.iter().copied())),
        report::f2(geomean(
            pb_speedups.iter().zip(&ideal_speedups).map(|(p, i)| i / p),
        )),
    ]);
    vec![t]
}

/// Figure 10: the headline result — speedups of PB-SW, PB-SW-IDEAL and
/// COBRA over the unoptimized baseline, across all kernels and inputs.
fn fig10_speedups(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10: speedup over Baseline",
        &[
            "kernel",
            "input",
            "PB-SW",
            "PB-SW-IDEAL",
            "COBRA",
            "COBRA/PB-SW",
            "PB bins",
        ],
    );
    let (mut s_pb, mut s_ideal, mut s_cobra) = (Vec::new(), Vec::new(), Vec::new());
    for &k in &ALL_KERNELS {
        // Standard trims the suite to keep the wall-clock reasonable;
        // --full runs everything.
        let keep = match scale {
            Scale::Full => usize::MAX,
            _ => trim_for(k),
        };
        for ni in inputs::kernel_inputs(cells, k, scale, keep) {
            let r = cells.pb_modes(k, &ni);
            let cobra = cells.get(k, &ni, ModeSpec::cobra_default());
            let (pb, ideal, cobra) = (
                r.speedup(&r.pb_sw),
                r.speedup(&r.pb_ideal),
                r.speedup(&cobra.metrics),
            );
            s_pb.push(pb);
            s_ideal.push(ideal);
            s_cobra.push(cobra);
            t.row(vec![
                k.name().into(),
                ni.name.clone(),
                report::f2(pb),
                report::f2(ideal),
                report::f2(cobra),
                report::f2(cobra / pb),
                r.pb_sw_bins.to_string(),
            ]);
            eprintln!("[done] {} / {}", k.name(), ni.name);
        }
    }
    t.row(vec![
        "GEOMEAN".into(),
        "-".into(),
        report::f2(geomean(s_pb.iter().copied())),
        report::f2(geomean(s_ideal.iter().copied())),
        report::f2(geomean(s_cobra.iter().copied())),
        report::f2(geomean(s_cobra.iter().zip(&s_pb).map(|(c, p)| c / p))),
        "-".into(),
    ]);
    vec![t]
}

/// How many of a kernel's inputs `fig10_speedups` runs below `--full`.
fn trim_for(k: KernelId) -> usize {
    use KernelId::*;
    match k {
        // Radii re-streams the graph every round; keep two inputs at
        // standard scale.
        Radii => 2,
        DegreeCount | NeighborPopulate | Pagerank => 3,
        IntSort => 1,
        _ => 2,
    }
}

/// PB-SW at its sweet-spot bin count and COBRA with paper defaults: the
/// pair Figures 11 and 12 compare, both cells of Figure 10.
fn pb_sw_and_cobra(cells: &mut Cells, k: KernelId, ni: &NamedInput) -> (RunMetrics, RunMetrics) {
    let sweet = bin_choices(k, &ni.input, cells.machine()).sweet_spot;
    let pb_sw = cells.get(k, ni, ModeSpec::PbSw { min_bins: sweet });
    let cobra = cells.get(k, ni, ModeSpec::cobra_default());
    (pb_sw.metrics, cobra.metrics)
}

/// Figure 11: COBRA's per-phase speedups over PB-SW — Binning accelerates
/// far more than Accumulate (hardware offload + no compromise bins).
fn fig11_phase_speedups(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 11: COBRA speedup over PB-SW, per phase",
        &["kernel", "input", "binning", "accumulate", "overall"],
    );
    let (mut s_bin, mut s_acc) = (Vec::new(), Vec::new());
    for &k in &ALL_KERNELS {
        let ni = inputs::representative_input(cells, k, scale);
        let (pb_sw, cobra) = pb_sw_and_cobra(cells, k, &ni);
        let ratio = |phase: &str| {
            let pb = pb_sw.phase_cycles(phase).max(1) as f64;
            let co = cobra.phase_cycles(phase).max(1) as f64;
            pb / co
        };
        let b = ratio(phases::BINNING);
        let a = ratio(phases::ACCUMULATE);
        s_bin.push(b);
        s_acc.push(a);
        t.row(vec![
            k.name().into(),
            ni.name.clone(),
            report::f2(b),
            report::f2(a),
            report::f2(cobra.speedup_over(&pb_sw)),
        ]);
        eprintln!("[done] {}", k.name());
    }
    t.row(vec![
        "GEOMEAN".into(),
        "-".into(),
        report::f2(geomean(s_bin.iter().copied())),
        report::f2(geomean(s_acc.iter().copied())),
        "-".into(),
    ]);
    vec![t]
}

/// Figure 12: why COBRA's Binning is fast — instruction-count reduction
/// (top) and branch-misprediction elimination (bottom) vs software PB.
fn fig12_instr_branch(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 12: instruction reduction and branch MPKI (PB-SW vs COBRA)",
        &[
            "kernel",
            "input",
            "PB-SW instr (M)",
            "COBRA instr (M)",
            "reduction",
            "PB-SW MPKI",
            "COBRA MPKI",
            "PB-SW bin-IPC",
            "COBRA bin-IPC",
        ],
    );
    let mut reductions = Vec::new();
    for &k in &ALL_KERNELS {
        let ni = inputs::representative_input(cells, k, scale);
        let (pb_sw, cobra) = pb_sw_and_cobra(cells, k, &ni);
        let pb_i = pb_sw.instructions();
        let co_i = cobra.instructions();
        let red = pb_i as f64 / co_i.max(1) as f64;
        reductions.push(red);
        let bin_ipc = |m: &RunMetrics| m.result.phase("binning").map_or(0.0, |p| p.core.ipc());
        t.row(vec![
            k.name().into(),
            ni.name.clone(),
            format!("{:.1}", pb_i as f64 / 1e6),
            format!("{:.1}", co_i as f64 / 1e6),
            report::f2(red),
            report::f2(pb_sw.result.core.branch_mpki()),
            report::f2(cobra.result.core.branch_mpki()),
            report::f2(bin_ipc(&pb_sw)),
            report::f2(bin_ipc(&cobra)),
        ]);
        eprintln!("[done] {}", k.name());
    }
    println!(
        "geomean instruction reduction: {:.2}x",
        geomean(reductions.iter().copied())
    );
    vec![t]
}

/// Figure 13a: sensitivity to the L1→L2 eviction-buffer size — the DES
/// experiment sizing the buffers that hide C-Buffer-eviction latency.
fn fig13a_evict_buffers(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 13a: fraction of Binning stalled on a full L1->L2 eviction buffer",
        &["input", "1", "2", "4", "8", "16", "32", "64"],
    );
    // The DES consumes Neighbor-Populate's update-tuple trace (edge source
    // keys), exactly as the paper's DES consumes a tuple trace.
    for ni in inputs::graph_suite(cells, scale) {
        let Input::Graph { el, .. } = &ni.input else {
            continue;
        };
        let hier = BinHierarchy::bininit(
            cells.machine(),
            ReservedWays::paper_default(cells.machine()),
            el.num_vertices(),
            KernelId::NeighborPopulate.tuple_bytes(),
        );
        let mut row = vec![ni.name.clone()];
        for entries in [1usize, 2, 4, 8, 16, 32, 64] {
            let cfg = DesConfig {
                l1_evict_entries: entries,
                l2_evict_entries: 8,
            };
            // One tuple per cycle: the paper's full-rate producer.
            let rep = simulate_fixed_rate(&hier, cfg, el.edges().iter().map(|e| e.src), 1);
            row.push(report::pct(rep.stall_fraction()));
        }
        t.row(row);
        eprintln!("[done] {}", ni.name);
    }
    vec![t]
}

/// Figure 13b: sensitivity of COBRA's Binning phase to the cache ways
/// reserved for C-Buffers at each level.
fn fig13b_way_sensitivity(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let kernel = KernelId::NeighborPopulate;
    let ni = inputs::representative_input(cells, kernel, scale);
    let default = ReservedWays::paper_default(cells.machine());
    println!(
        "kernel: {} on {} | default reservation: L1 {} / L2 {} / LLC {}",
        kernel.name(),
        ni.name.clone(),
        default.l1,
        default.l2,
        default.llc
    );

    let mut binning = |reserved: ReservedWays| {
        let spec = ModeSpec::Cobra {
            reserved: Some(reserved),
            des: DesConfig::paper_default(),
            ctx_quantum: None,
        };
        cells.get(kernel, &ni, spec).metrics.phase_cycles("binning")
    };
    let base = binning(default);

    let mut t = Table::new(
        "Figure 13b: Binning cycles vs ways reserved for C-Buffers (normalized to default)",
        &["level swept", "ways", "binning Mcycles", "vs default"],
    );
    for (level, sweep) in [
        ("L1", [1, 2, 4, 7]),
        ("L2", [1, 2, 4, 7]),
        ("LLC", [4, 8, 12, 15]),
    ] {
        for ways in sweep {
            let mut reserved = default;
            let swept = match level {
                "L1" => &mut reserved.l1,
                "L2" => &mut reserved.l2,
                _ => &mut reserved.llc,
            };
            *swept = ways;
            let c = binning(reserved);
            t.row(vec![
                level.into(),
                ways.to_string(),
                format!("{:.1}", c as f64 / 1e6),
                report::f2(c as f64 / base as f64),
            ]);
            eprintln!("[done] {level} ways={ways}");
        }
    }
    vec![t]
}

/// Default Linux scheduling quantum, in cycles at 2.66 GHz (~6 ms slice).
const DEFAULT_QUANTUM: u64 = 16_000_000;

/// Figure 13c: worst-case DRAM bandwidth waste from context switches —
/// under static way partitioning, other processes evict partially-filled
/// LLC C-Buffer lines every scheduling quantum.
fn fig13c_ctx_switch(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let kernel = KernelId::NeighborPopulate;
    let ni = inputs::representative_input(cells, kernel, scale);
    println!("kernel: {} on {}", kernel.name(), ni.name);

    let mut t = Table::new(
        "Figure 13c: worst-case DRAM bandwidth waste vs scheduling quantum",
        &[
            "quantum (cycles)",
            "context switches",
            "wasted MB",
            "bin-write MB",
            "waste",
        ],
    );
    for divisor in [1u64, 10, 100, 1000] {
        let quantum = (DEFAULT_QUANTUM / divisor).max(1);
        let spec = ModeSpec::Cobra {
            reserved: None,
            des: DesConfig::paper_default(),
            ctx_quantum: Some(quantum),
        };
        let out = cells.get(kernel, &ni, spec);
        let wr = out.metrics.result.mem.dram_write_bytes;
        // Waste = the gap between line-granular bin writes with forced
        // partial evictions and perfectly packed tuple bytes.
        let packed = ni.input.num_updates(kernel) * kernel.tuple_bytes() as u64;
        let wasted = wr.saturating_sub(packed);
        t.row(vec![
            format!("default/{divisor} ({quantum})"),
            // context switches = run cycles / quantum, observable via waste
            (out.metrics.cycles() / quantum).to_string(),
            format!("{:.2}", wasted as f64 / 1e6),
            format!("{:.2}", wr as f64 / 1e6),
            report::pct(wasted as f64 / wr.max(1) as f64),
        ]);
        eprintln!("[done] quantum/{divisor}");
    }
    vec![t]
}

/// Simulates an Accumulate pass over coalesced `(key, count)` bins with the
/// given bin granularity: streaming tuple reads + one irregular
/// read-modify-write per tuple. Returns L1 misses.
fn accumulate_l1_misses(
    machine: &MachineConfig,
    bins: &[Vec<(u32, u32)>],
    num_keys: u32,
    tuple_bytes: u32,
) -> u64 {
    let mut e = SimEngine::new(*machine);
    let data = e.alloc("acc_data", num_keys.max(1) as u64 * 4);
    let region: u64 = bins.iter().map(|b| b.len() as u64).sum::<u64>() * tuple_bytes as u64;
    let tuples = e.alloc("acc_tuples", region.max(1));
    let mut cursor = 0u64;
    for bin in bins {
        for &(k, _) in bin {
            e.load(tuples.addr(tuple_bytes as u64, cursor), tuple_bytes);
            cursor += 1;
            e.load(data.addr(4, k as u64), 4);
            e.alu(1);
            e.store(data.addr(4, k as u64), 4);
        }
    }
    e.finish().mem.l1d.misses
}

/// All coalesced tuples of a columnar bin store, in bin order.
fn store_tuples(bins: &BinStore<u32>) -> impl Iterator<Item = (u32, u32)> + '_ {
    (0..bins.num_bins()).flat_map(|b| bins.iter_bin(b).map(|(&k, &c)| (k, c)))
}

/// Regroups coalesced tuples into `1 << shift`-key bins (PHI inherits
/// PB-SW's compromise bin count; COBRA-COMM uses the LLC bin count).
fn regroup(
    tuples: impl Iterator<Item = (u32, u32)>,
    shift: u32,
    num_keys: u32,
) -> Vec<Vec<(u32, u32)>> {
    let n = ((num_keys as u64).div_ceil(1 << shift)) as usize;
    let mut out = vec![Vec::new(); n.max(1)];
    for (k, c) in tuples {
        out[(k >> shift) as usize].push((k, c));
    }
    out
}

/// Figure 14: commutative-update specializations — DRAM bin traffic (14a)
/// and L1 misses (14b) under PB-SW, idealized PHI, COBRA and COBRA-COMM,
/// for the commutative Degree-Count kernel.
///
/// PHI and COBRA-COMM coalesce updates (inapplicable to the
/// non-commutative kernels); COBRA alone is the general optimization.
fn fig14_comm_compare(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let suite = inputs::graph_suite(cells, scale);
    let machine = cells.machine();
    let kernel = KernelId::DegreeCount;

    let mut ta = Table::new(
        "Figure 14a: DRAM bin-write traffic, normalized to PB-SW",
        &[
            "input",
            "PB-SW",
            "PHI",
            "COBRA",
            "COBRA-COMM",
            "PHI LLC-coalesce share",
        ],
    );
    let mut tb = Table::new(
        "Figure 14b: Accumulate L1 misses, normalized to PB-SW",
        &["input", "PB-SW", "PHI", "COBRA", "COBRA-COMM"],
    );

    for ni in suite {
        let Input::Graph { el, .. } = &ni.input else {
            continue;
        };
        let keys = el.num_vertices();
        let hier = BinHierarchy::bininit(
            machine,
            ReservedWays::paper_default(machine),
            keys,
            kernel.tuple_bytes(),
        );
        let stream = || el.edges().iter().map(|e| e.dst);
        let plain = run_plain(stream(), &hier);
        let (phi, phi_bins) = run_phi(stream(), &hier);
        let (comm, comm_bins) = run_cobra_comm(stream(), &hier);
        let norm = |x: u64| report::f2(x as f64 / plain.dram_write_bytes.max(1) as f64);
        ta.row(vec![
            ni.name.clone(),
            "1.00".into(),
            norm(phi.dram_write_bytes),
            norm(plain.dram_write_bytes), // COBRA does not coalesce
            norm(comm.dram_write_bytes),
            report::pct(phi.llc_coalesce_share()),
        ]);

        // 14b: L1 misses of the Accumulate pass. PB-SW and PHI replay with
        // the software compromise bin count; COBRA and COBRA-COMM with the
        // optimal (LLC) bin count.
        let choices = bin_choices(kernel, &ni.input, machine);
        let sw_shift = ((keys as u64).div_ceil(choices.sweet_spot as u64))
            .next_power_of_two()
            .trailing_zeros();
        let opt_shift = hier.memory_bin_shift();
        let uncoalesced = || stream().map(|k| (k, 1));
        let misses = |tuples: &mut dyn Iterator<Item = (u32, u32)>, shift| {
            let bins = regroup(tuples, shift, keys);
            accumulate_l1_misses(machine, &bins, keys, kernel.tuple_bytes())
        };
        let pb_sw_m = misses(&mut uncoalesced(), sw_shift);
        let phi_m = misses(&mut store_tuples(&phi_bins), sw_shift);
        let cobra_m = misses(&mut uncoalesced(), opt_shift);
        let comm_m = misses(&mut store_tuples(&comm_bins), opt_shift);
        let normb = |x: u64| report::f2(x as f64 / pb_sw_m.max(1) as f64);
        tb.row(vec![
            ni.name.clone(),
            "1.00".into(),
            normb(phi_m),
            normb(cobra_m),
            normb(comm_m),
        ]);
        eprintln!("[done] {}", ni.name);
    }
    vec![ta, tb]
}

/// Iterations standing in for "until convergence" (the paper notes Pagerank has
/// near-constant per-iteration cost).
const ITERS: u32 = 4;

/// Figure 15: Propagation Blocking vs CSR-Segmenting (1-D tiling) for
/// Pagerank run to convergence, with initialization overheads broken out
/// (the shaded bars of the paper's figure).
fn fig15_tiling_vs_pb(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let suite = inputs::graph_suite_small(cells, scale);
    let machine = cells.machine();
    let mut t = Table::new(
        "Figure 15: Pagerank-to-convergence runtime, normalized to Baseline (lower is better)",
        &[
            "input",
            "PB total",
            "PB init share",
            "Tiling total",
            "Tiling init share",
            "PB speedup (no init)",
            "Tiling speedup (no init)",
        ],
    );
    for ni in suite {
        let Input::Graph { csr, .. } = &ni.input else {
            continue;
        };

        let mut be = SimEngine::new(*machine);
        let _ = pagerank_baseline_iters(&mut be, csr, ITERS);
        let base = be.finish();

        let choices = bin_choices(KernelId::Pagerank, &ni.input, machine);
        let mut pb = SwPb::<_, f32>::new(
            SimEngine::new(*machine),
            csr.num_vertices() as u32,
            choices.sweet_spot,
            KernelId::Pagerank.tuple_bytes(),
            csr.num_edges() as u64,
        );
        let _ = pagerank_pb_iters(&mut pb, csr, ITERS);
        let pbr = pb.into_engine().finish();

        let mut te = SimEngine::new(*machine);
        // Segment size targeting the LLC, as CSR-Segmenting does.
        let seg_shift = 17; // 128K vertices x 4B = 512KB per segment
        let _ = pagerank_tiled(&mut te, csr, seg_shift, ITERS);
        let tr = te.finish();

        let base_c = base.core.cycles as f64;
        let pb_init = pbr.phase(phases::INIT).map_or(0, |p| p.core.cycles) as f64;
        let tile_init = tr.phase(phases::INIT).map_or(0, |p| p.core.cycles) as f64;
        let (pb_c, tr_c) = (pbr.core.cycles as f64, tr.core.cycles as f64);
        t.row(vec![
            ni.name.clone(),
            report::f2(pb_c / base_c),
            report::pct(pb_init / pb_c),
            report::f2(tr_c / base_c),
            report::pct(tile_init / tr_c),
            report::f2(base_c / (pb_c - pb_init)),
            report::f2(base_c / (tr_c - tile_init)),
        ]);
        eprintln!("[done] {}", ni.name);
    }
    vec![t]
}

/// Ablation (Section V-E, "Need for Static Cache Partitioning"): COBRA
/// without static way partitioning. C-Buffer lines contend with other data
/// under the baseline replacement policies; the paper's cache-simulator
/// evaluation found a C-Buffer miss rate below 1% because all co-running
/// Binning-phase accesses are streaming.
fn ablation_partitioning(scale: Scale, cells: &mut Cells) -> Vec<Table> {
    let kernel = KernelId::DegreeCount;
    let mut t = Table::new(
        "Ablation: COBRA without static cache partitioning (Binning phase)",
        &["input", "C-Buffer miss rate", "binning cycles vs pinned"],
    );
    for ni in inputs::graph_suite(cells, scale) {
        let Input::Graph { el, .. } = &ni.input else {
            continue;
        };
        let run = |partitioned: bool| {
            let mut m = CobraMachine::<()>::with_defaults(
                *cells.machine(),
                el.num_vertices(),
                kernel.tuple_bytes(),
                el.num_edges() as u64,
            );
            if !partitioned {
                m.disable_static_partitioning();
            }
            let edges = Engine::alloc(&mut m, "edges", el.num_edges().max(1) as u64 * 8);
            for (i, e) in el.edges().iter().enumerate() {
                Engine::load(&mut m, edges.addr(8, i as u64), 8);
                m.insert(e.dst, ());
            }
            let _ = m.flush_and_take();
            let rate = m.cbuffer_miss_rate();
            (rate, m.finish().core.cycles)
        };
        let (_, pinned_cycles) = run(true);
        let (rate, free_cycles) = run(false);
        t.row(vec![
            ni.name.clone(),
            report::pct(rate),
            report::f2(free_cycles as f64 / pinned_cycles as f64),
        ]);
        eprintln!("[done] {}", ni.name);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The committed record of a CSV.
    fn committed(csv: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{csv}.csv"))
    }

    fn parse_strs(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse(&args).map(|(scale, rows)| (scale, rows.iter().map(|e| e.name).collect()))
    }

    /// Rows run in table order; an unknown flag or name, or both scales,
    /// is an error.
    #[test]
    fn parse_accepts_one_scale_and_row_names_only() {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(parse_strs(&[]), Ok((Scale::Standard, all.clone())));
        assert_eq!(parse_strs(&["--full"]), Ok((Scale::Full, all)));
        assert_eq!(
            parse_strs(&["fig04_bin_sensitivity", "--quick", "tab2_machine"]),
            Ok((Scale::Quick, vec!["tab2_machine", "fig04_bin_sensitivity"]))
        );
        for bad in [
            &["--quik"][..],
            &["--quick", "fig10"],
            &["fig10_speedups", "-q"],
            &["--quick", "--full"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// The rows cheap enough for a debug build reproduce their committed
    /// CSVs byte for byte at `--quick`; CI checks every row in release.
    #[test]
    fn cheap_rows_reproduce_the_committed_record() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "row names must be unique");
        for csv in EXPERIMENTS.iter().flat_map(|e| e.csvs) {
            assert!(
                committed(csv).is_file(),
                "results/{csv}.csv is not committed"
            );
        }

        let mut cells = Cells::new(MachineConfig::hpca22());
        for name in [
            "tab2_machine",
            "tab3_inputs",
            "fig04_bin_sensitivity",
            "fig13a_evict_buffers",
            "ablation_partitioning",
        ] {
            let e = EXPERIMENTS.iter().find(|e| e.name == name).expect("row");
            let tables = (e.run)(Scale::Quick, &mut cells);
            assert_eq!(tables.len(), e.csvs.len(), "{name}");
            for (t, csv) in tables.iter().zip(e.csvs) {
                let want = std::fs::read_to_string(committed(csv)).expect("read committed csv");
                assert_eq!(
                    t.to_csv(),
                    want,
                    "results/{csv}.csv differs from `repro --quick {name}`"
                );
            }
        }
    }
}
