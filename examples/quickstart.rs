//! Quickstart: Propagation Blocking in three steps.
//!
//! Bins a stream of irregular updates, replays them with locality, and
//! shows the same computation running on the simulated COBRA machine.
//!
//! Run with: `cargo run --release --example quickstart`

use cobra_repro::cobra::{CobraMachine, PbBackend};
use cobra_repro::pb::Binner;
use cobra_repro::sim::MachineConfig;

fn main() {
    // ---- 1. Software Propagation Blocking (the cobra-pb library). ----
    // A histogram over a large key domain: direct increments would walk all
    // over `counts`; PB routes them through bins first.
    let num_keys = 1 << 20;
    let updates: Vec<u32> = (0..200_000u64)
        .map(|i| ((i * 2654435761) % num_keys as u64) as u32)
        .collect();

    // `extend` routes the whole stream as one run (`insert` routes one
    // tuple: the same body, the same bins).
    let mut binner = Binner::<u32>::new(num_keys, 4096);
    binner.extend(updates.iter().map(|&k| (k, 1)));
    let bins = binner.finish();
    println!(
        "binned {} updates into {} bins of {} keys each",
        bins.len(),
        bins.num_bins(),
        1u64 << bins.bin_shift()
    );

    // Accumulate: each bin touches one small, cache-resident key range.
    let mut counts = vec![0u32; num_keys as usize];
    bins.accumulate(|key, &v| counts[key as usize] += v);
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    assert_eq!(total, updates.len() as u64);
    println!("accumulate done; histogram total = {total}");

    // ---- 2. The same updates on the simulated COBRA machine. ----
    // One `binupdate` instruction per tuple; the cache hierarchy does the
    // binning (HPCA'22, Sections IV-V).
    let mut machine = CobraMachine::<u32>::with_defaults(
        MachineConfig::hpca22(),
        num_keys,
        8,
        updates.len() as u64,
    );
    for &k in &updates {
        machine.insert(k, 1);
    }
    let storage = machine.flush_and_take();
    println!(
        "COBRA routed {} tuples into {} in-memory bins (bin range {})",
        storage.len(),
        storage.num_bins(),
        1u64 << storage.bin_shift()
    );
    let result = machine.finish();
    println!(
        "simulated: {} instructions, {} cycles, {} bytes written to bins in DRAM",
        result.core.instructions, result.core.cycles, result.mem.dram_write_bytes
    );

    // The hardware-binned result matches the software-binned one.
    let mut hw_counts = vec![0u32; num_keys as usize];
    for b in 0..storage.num_bins() {
        for (key, &v) in storage.iter_bin(b) {
            hw_counts[key as usize] += v;
        }
    }
    assert_eq!(counts, hw_counts);
    println!("software and hardware binning agree ✓");
}
